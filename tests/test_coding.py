import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.baseband import coding
from linksim.baseband.coding import (_STEP_CHUNK, CRC_POLYNOMIALS,
                                     DECISION_BYTES, CodecConfig,
                                     _trellis, conv_encode_batch,
                                     crc_bits_batch, decode, encode,
                                     viterbi_decode_batch)

SMALL = CodecConfig(info_bits_per_codeword=128, crc_width=32)
RATE_THIRD = CodecConfig(info_bits_per_codeword=128, crc_width=32,
                         generators=(0o133, 0o171, 0o165))


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


def bpsk(coded):
    """Noiseless soft values of coded bits: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * coded


def reference_viterbi(soft, cfg):
    """Reference decoder: the same add-compare-select loop, traced back one
    step at a time through the decision bits by fancy indexing."""
    cfg_len = cfg.coded_bits_per_codeword
    soft = np.asarray(soft, dtype=np.float64)
    n_out = len(cfg.generators)
    tr = _trellis(cfg.constraint_length, cfg.generators)
    batch = soft.shape[0]
    steps = cfg_len // n_out
    half = tr.n_states // 2
    soft = soft.reshape(batch, steps, n_out).transpose(1, 2, 0)[:, :, None]

    sign = tr.combo_sign[:, :, None]
    bm = np.multiply(soft[:, 0], sign[:, 0], order="C")
    for o in range(1, n_out):
        bm += soft[:, o] * sign[:, o]

    metric = np.full((tr.n_states, batch), -1e30)
    metric[0] = 0.0
    pred = metric.reshape(half, 2, batch).transpose(1, 0, 2)[:, None]
    cand = np.empty((2, tr.n_states, batch))
    decisions = np.empty((steps, tr.n_states, batch), dtype=bool)
    for n0 in range(0, steps, _STEP_CHUNK):
        branches = bm[n0:n0 + _STEP_CHUNK][:, tr.branch_combo]
        for n, branch in enumerate(
                branches.reshape(-1, 2, 2, half, batch), n0):
            np.add(pred, branch, out=cand.reshape(2, 2, half, batch))
            np.greater(cand[1], cand[0], out=decisions[n])
            np.maximum(cand[0], cand[1], out=metric)

    rows = np.arange(batch)
    state = np.zeros(batch, dtype=np.intp)
    states = np.empty((steps, batch), dtype=np.intp)
    for n in range(steps - 1, -1, -1):
        states[n] = state
        state = ((state << 1) & (tr.n_states - 1)) | decisions[n][state, rows]
    input_bit = (states[: steps - cfg.tail_bits].T >> (cfg.constraint_length - 2)) & 1
    return input_bit.astype(np.uint8)


@st.composite
def tied_soft_matrices(draw):
    """(codec, soft values) for a random rate-1/2 or rate-1/3 code of
    constraint length 3..9 and 1..40 rows; the soft values are rounded to
    integers, so merging paths often tie."""
    k = draw(st.integers(3, 9))
    n_out = draw(st.sampled_from([2, 3]))
    generators = tuple(draw(st.lists(st.integers(1, (1 << k) - 1),
                                     min_size=n_out, max_size=n_out)))
    cfg = CodecConfig(info_bits_per_codeword=draw(st.integers(9, 120)),
                      crc_width=8, constraint_length=k, generators=generators)
    rows = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    soft = np.round(rng.normal(scale=scale,
                               size=(rows, cfg.coded_bits_per_codeword)))
    return cfg, soft


def intp_viterbi(soft, cfg):
    """Reference batch decoder: the one-call add-compare-select loop over a
    transposed copy of the soft values, a branch gather per step chunk, and
    a traceback through an intp predecessor table.  ``viterbi_decode_batch``
    must give its bits exactly."""
    cfg_len = cfg.coded_bits_per_codeword
    soft = np.asarray(soft, dtype=np.float64)
    batch = soft.shape[0]
    n_out = len(cfg.generators)
    tr = _trellis(cfg.constraint_length, cfg.generators)
    steps = cfg_len // n_out
    half = tr.n_states // 2

    outputs = soft.reshape(batch, steps, n_out).transpose(2, 1, 0).copy()
    bm = np.empty((steps, len(tr.combo_sign), batch))
    for c, signs in enumerate(tr.combo_sign):
        np.multiply(outputs[0], signs[0], out=bm[:, c])
        for o in range(1, n_out):
            (np.add if signs[o] > 0 else np.subtract)(
                bm[:, c], outputs[o], out=bm[:, c])
    del outputs

    metric = np.full((tr.n_states, batch), -1e30)
    metric[0] = 0.0
    pred = metric.reshape(half, 2, batch).transpose(1, 0, 2)[:, None]
    cand = np.empty((2, tr.n_states, batch))
    cand_jhu = cand.reshape(2, 2, half, batch)
    cand0, cand1 = cand
    decisions = np.empty((steps, tr.n_states, batch), dtype=bool)
    for n0 in range(0, steps, _STEP_CHUNK):
        branches = bm[n0:n0 + _STEP_CHUNK].take(tr.branch_combo, axis=1)
        for branch, decision in zip(branches.reshape(-1, 2, 2, half, batch),
                                    decisions[n0:n0 + _STEP_CHUNK]):
            np.add(pred, branch, out=cand_jhu)
            np.greater(cand1, cand0, out=decision)
            np.maximum(cand0, cand1, out=metric)

    base = ((np.arange(tr.n_states) % half * 2 * batch)[:, None]
            + np.arange(batch)).reshape(-1)
    table = np.empty((_STEP_CHUNK, tr.n_states * batch), dtype=np.intp)
    flat = np.arange(batch)
    states = np.empty((steps, batch), dtype=np.intp)
    for n0 in reversed(range(0, steps, _STEP_CHUNK)):
        block = table[: min(_STEP_CHUNK, steps - n0)]
        np.multiply(decisions[n0:n0 + _STEP_CHUNK].reshape(len(block), -1),
                    batch, out=block)
        block += base
        for n in range(n0 + len(block) - 1, n0 - 1, -1):
            states[n] = flat
            flat = block[n - n0].take(flat)
    return (states[: steps - cfg.tail_bits].T >= half * batch).view(np.uint8)


@st.composite
def decoder_cases(draw):
    """(codec, soft values) for a rate-1/2 or rate-1/3 code of constraint
    length 3..7 with drawn generators and 1..70 rows.  The soft values are
    normal draws, or drawn from {-1, 0, 1}, where merging paths tie often."""
    k = draw(st.integers(3, 7))
    n_out = draw(st.sampled_from([2, 3]))
    generators = tuple(draw(st.lists(st.integers(1, (1 << k) - 1),
                                     min_size=n_out, max_size=n_out)))
    cfg = CodecConfig(info_bits_per_codeword=draw(st.integers(9, 64)),
                      crc_width=8, constraint_length=k, generators=generators)
    shape = (draw(st.integers(1, 70)), cfg.coded_bits_per_codeword)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return cfg, rng.normal(size=shape)
    return cfg, rng.choice([-1.0, 0.0, 1.0], size=shape)


class TestConvolutionalCode:
    def test_all_zero_input_gives_all_zero_codeword(self):
        out = conv_encode_batch(np.zeros((1, 64), dtype=np.uint8), CodecConfig())
        assert not out.any()
        assert out.shape == (1, (64 + 6) * 2)

    def test_default_codeword_length(self):
        cfg = CodecConfig()
        assert cfg.info_bits_per_codeword == 1024
        assert cfg.info_bits_per_codeword > 1000
        assert cfg.coded_bits_per_codeword == 2060

    def test_gf2_linearity(self):
        a = random_bits(200, 1)
        b = random_bits(200, 2)
        xor, ca, cb = conv_encode_batch(np.stack([a ^ b, a, b]), CodecConfig())
        assert np.array_equal(xor, ca ^ cb)

    @pytest.mark.parametrize("cfg, coded_len", [
        (SMALL, (128 + 6) * 2), (CodecConfig(), 2060), (RATE_THIRD, (128 + 6) * 3),
    ], ids=["small", "defaults", "third"])
    def test_roundtrip_noiseless(self, cfg, coded_len):
        info = random_bits(3 * cfg.info_capacity, 3).reshape(3, -1)
        coded = encode(info, cfg)
        assert coded.shape == (3, coded_len)
        out, crc_ok, corrected = decode(bpsk(coded), cfg)
        assert np.array_equal(out, info)
        assert crc_ok.tolist() == [[True]] * 3
        assert corrected.tolist() == [0] * 3

    def test_short_payload_padded(self):
        info = random_bits(10, 5)[None, :]
        out, crc_ok, _ = decode(bpsk(encode(info, SMALL)), SMALL)
        assert crc_ok.all()
        assert out.shape == (1, SMALL.info_capacity)
        assert np.array_equal(out[:, :10], info)
        assert not out[:, 10:].any()

    def test_long_rows_span_several_codewords(self):
        # a row of 2 * capacity + 5 bits fills three codewords back to back,
        # the last one zero-padded, each encoded as it would be alone
        cap, cw = SMALL.info_capacity, SMALL.coded_bits_per_codeword
        info = random_bits(2 * (2 * cap + 5), 15).reshape(2, -1)
        coded = encode(info, SMALL)
        assert coded.shape == (2, 3 * cw)
        padded = np.zeros((2, 3 * cap), dtype=np.uint8)
        padded[:, : info.shape[1]] = info
        for k in range(3):
            alone = encode(padded[:, k * cap:(k + 1) * cap], SMALL)
            assert np.array_equal(coded[:, k * cw:(k + 1) * cw], alone)
        # isolated flips in any codeword are corrected and counted per row
        for row, col in ((0, 5), (0, 2 * cw + 7), (0, 2 * cw + 100), (1, cw + 50)):
            coded[row, col] ^= 1
        out, crc_ok, corrected = decode(bpsk(coded), SMALL)
        assert np.array_equal(out, padded)
        assert crc_ok.shape == (2, 3) and crc_ok.all()
        assert corrected.tolist() == [3, 1]

    def test_crc_verdict_is_per_codeword(self):
        cw = SMALL.coded_bits_per_codeword
        coded = encode(random_bits(3 * SMALL.info_capacity, 16)[None, :], SMALL)
        coded[0, cw:2 * cw] = random_bits(cw, 17)     # garble the middle one
        _, crc_ok, _ = decode(bpsk(coded), SMALL)
        assert crc_ok.tolist() == [[True, False, True]]

    def test_single_flip_exhaustive(self):
        # free distance of the K=7 133/171 code is 10, so any single coded
        # bit flip must be corrected, and counted as one corrected bit
        info = random_bits(SMALL.info_capacity, 6)
        coded = encode(info[None, :], SMALL)[0]
        flipped = np.tile(coded, (len(coded), 1))
        flipped[np.arange(len(coded)), np.arange(len(coded))] ^= 1
        out, crc_ok, corrected = decode(bpsk(flipped), SMALL)
        assert np.array_equal(out, np.tile(info, (len(coded), 1)))
        assert crc_ok.all()
        assert (corrected == 1).all()

    @pytest.mark.parametrize("cfg", [SMALL, RATE_THIRD], ids=["half", "third"])
    def test_batch_rows_decode_as_they_do_alone(self, cfg):
        # rounded soft values force ties, which must break the same way in
        # every row of a batch
        rng = np.random.default_rng(14)
        soft = np.round(rng.normal(scale=0.8, size=(9, cfg.coded_bits_per_codeword)))
        batch = viterbi_decode_batch(soft, cfg)
        for i, row in enumerate(soft):
            assert np.array_equal(batch[i], viterbi_decode_batch(row[None, :], cfg)[0])

    @settings(max_examples=60, deadline=None)
    @given(tied_soft_matrices())
    def test_decoder_matches_step_by_step_reference(self, case):
        cfg, soft = case
        decoded = viterbi_decode_batch(soft, cfg)
        expected = reference_viterbi(soft, cfg)
        assert decoded.dtype == expected.dtype == np.uint8
        assert np.array_equal(decoded, expected)

    @settings(max_examples=60, deadline=None)
    @given(decoder_cases())
    # a mux-baseband group's 63 codewords, every soft value a tie level
    @example((CodecConfig(info_bits_per_codeword=512),
              np.random.default_rng(3).choice([-1.0, 0.0, 1.0], size=(63, 1036))))
    def test_decoder_matches_the_intp_batch_reference(self, case):
        cfg, soft = case
        decoded = viterbi_decode_batch(soft, cfg)
        expected = intp_viterbi(soft, cfg)
        assert decoded.dtype == expected.dtype == np.uint8
        assert np.array_equal(decoded, expected)

    def test_empty_batch(self):
        cfg = CodecConfig()
        bits = viterbi_decode_batch(np.zeros((0, cfg.coded_bits_per_codeword)), cfg)
        assert bits.shape == (0, cfg.info_bits_per_codeword)
        assert bits.dtype == np.uint8
        coded = encode(np.zeros((0, 2 * cfg.info_capacity), dtype=np.uint8), cfg)
        assert coded.shape == (0, 2 * cfg.coded_bits_per_codeword)
        info, crc_ok, corrected = decode(coded.astype(np.float64), cfg)
        assert info.shape == (0, 2 * cfg.info_capacity)
        assert crc_ok.shape == (0, 2)
        assert corrected.shape == (0,)

    def test_a_batch_decodes_in_passes_within_the_budget(self, monkeypatch):
        # a budget of 2.5 codewords: a row of 7 codewords goes in passes of
        # 2, 2, 2 and 1 and decodes as it does in one pass
        cfg = SMALL
        info = random_bits(7 * cfg.info_capacity, 22)[None, :]
        soft = bpsk(encode(info, cfg)) + np.random.default_rng(23).normal(
            scale=0.7, size=(1, 7 * cfg.coded_bits_per_codeword))
        expected = decode(soft, cfg)
        passes = []
        one_pass = coding._viterbi_pass

        def counted_pass(rows, cfg):
            passes.append(len(rows))
            return one_pass(rows, cfg)

        monkeypatch.setattr(coding, "DECISION_BYTES", 5 * cfg.decision_bytes // 2)
        monkeypatch.setattr(coding, "_viterbi_pass", counted_pass)
        decoded = decode(soft, cfg)
        assert passes == [2, 2, 2, 1]
        assert max(passes) * cfg.decision_bytes <= coding.DECISION_BYTES
        for got, want in zip(decoded, expected):
            assert np.array_equal(got, want)
        assert expected[2][0] > 0     # the decoder corrected channel bits
        info, crc_ok, corrected = decode(soft[:0], cfg)
        assert info.shape == (0, 7 * cfg.info_capacity)
        assert crc_ok.shape == (0, 7) and corrected.shape == (0,)

    def test_peak_memory_of_a_decode_chunk(self):
        # the largest decode of a group at the default codec, 32 codewords
        # (the engine's trellis bound): the decisions take steps * states *
        # rows bytes and the rest stays small beside them; a predecessor
        # table for the whole call at once would take 8 (intp) or 4 (int32)
        # times the decisions on its own
        cfg, rows = CodecConfig(), 32
        soft = np.random.default_rng(18).normal(
            size=(rows, cfg.coded_bits_per_codeword))
        viterbi_decode_batch(soft, cfg)               # trellis cached
        tracemalloc.start()
        try:
            viterbi_decode_batch(soft, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = cfg.coded_bits_per_codeword // len(cfg.generators)
        assert peak <= 2.5 * steps * (1 << (cfg.constraint_length - 1)) * rows

    def test_random_garbage_fails_crc(self):
        garbage = random_bits(4 * SMALL.coded_bits_per_codeword, 7).reshape(4, -1)
        _, crc_ok, _ = decode(bpsk(garbage), SMALL)
        assert not crc_ok.any()

    def test_soft_decisions_accepted(self):
        info = random_bits(SMALL.info_capacity, 8)[None, :]
        out, crc_ok, _ = decode(bpsk(encode(info, SMALL)) * 3.7, SMALL)
        assert np.array_equal(out, info)
        assert crc_ok.all()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    def test_hard_bits_rejected(self, dtype):
        # 0/1 hard bits read as soft values are never negative, so no bit
        # would decode as 1 and every CRC would fail without a word
        coded = encode(random_bits(SMALL.info_capacity, 9)[None, :], SMALL)
        with pytest.raises(ValueError, match="floats"):
            decode(coded.astype(dtype), SMALL)

    @pytest.mark.parametrize("length", [0, 17, SMALL.coded_bits_per_codeword + 1])
    def test_length_mismatch_rejected(self, length):
        with pytest.raises(ValueError, match="does not match"):
            decode(np.zeros((1, length)), SMALL)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3 * SMALL.info_capacity),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, batch, n, seed):
        info = np.random.default_rng(seed).integers(0, 2, (batch, n), dtype=np.uint8)
        out, crc_ok, corrected = decode(bpsk(encode(info, SMALL)), SMALL)
        assert np.array_equal(out[:, :n], info)
        assert not out[:, n:].any()
        assert crc_ok.shape == (batch, -(-n // SMALL.info_capacity))
        assert crc_ok.all() and not corrected.any()

    @pytest.mark.parametrize("generators, seed, expected", [
        ((0o133, 0o171), 0,
         "010111000100011111101110110111111001011010111111"),
        ((0o133, 0o171, 0o165), 1,
         "111110110100111001101011110110011110001100000010"),
    ])
    def test_ties_resolve_to_zero_branch(self, generators, seed, expected):
        # integer soft values make many merging paths tie; these inputs
        # decode differently if ties went to the 1-branch instead
        cfg = CodecConfig(info_bits_per_codeword=48, crc_width=8,
                          generators=generators)
        rng = np.random.default_rng(seed)
        soft = np.round(rng.normal(scale=0.7,
                                   size=(1, cfg.coded_bits_per_codeword)))
        decoded = viterbi_decode_batch(soft, cfg)[0]
        assert "".join(map(str, decoded)) == expected


def bit_serial_crc(bits, width):
    """Reference CRC: one register step per input bit, MSB-first, init and
    final-xor all-ones."""
    poly = CRC_POLYNOMIALS[width]
    mask = (1 << width) - 1
    out = []
    for row in np.asarray(bits, dtype=np.uint8):
        reg = mask
        for bit in row:
            fb = (reg >> (width - 1)) ^ int(bit)
            reg = ((reg << 1) ^ (poly if fb else 0)) & mask
        reg ^= mask
        out.append([(reg >> (width - 1 - i)) & 1 for i in range(width)])
    return np.array(out, dtype=np.uint8).reshape(len(out), width)


@st.composite
def bit_matrices(draw, max_len=2048, max_batch=40):
    """(width, (batch, n) bits) with a random width, length and batch."""
    width = draw(st.sampled_from(sorted(CRC_POLYNOMIALS)))
    n = draw(st.integers(1, max_len))
    batch = draw(st.integers(1, max_batch))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, (batch, n), dtype=np.uint8)
    return width, bits


class TestCrc:
    def test_crc32_check_value(self):
        # the width-32 CRC is CRC-32/BZIP2 (0x04C11DB7, not reflected, init
        # and xor-out all ones); its check value over ASCII "123456789"
        bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        crc = crc_bits_batch(bits[None, :], 32)[0]
        assert int("".join(map(str, crc)), 2) == 0xFC891918

    @settings(max_examples=60, deadline=None)
    @given(bit_matrices())
    def test_matrix_crc_matches_bit_serial_reference(self, case):
        width, bits = case
        assert np.array_equal(crc_bits_batch(bits, width),
                              bit_serial_crc(bits, width))

    @settings(max_examples=60, deadline=None)
    @given(bit_matrices(), st.integers(0, 2**32 - 1))
    def test_crc_is_affine(self, case, seed):
        # crc(a ^ b) = crc(a) ^ crc(b) ^ crc(0)
        width, a = case
        b = np.random.default_rng(seed).integers(0, 2, a.shape, dtype=np.uint8)
        zero = np.zeros_like(a)
        assert np.array_equal(
            crc_bits_batch(a ^ b, width),
            crc_bits_batch(a, width) ^ crc_bits_batch(b, width)
            ^ crc_bits_batch(zero, width))

    def test_rows_are_independent_of_their_batch(self):
        bits = random_bits(40 * 300, 13).reshape(40, 300)
        batch = crc_bits_batch(bits, 16)
        for i in (0, 17, 39):
            assert np.array_equal(batch[i], crc_bits_batch(bits[i:i + 1], 16)[0])

    def test_detects_bit_flip(self):
        data = np.tile(random_bits(96, 9), (2, 1))
        data[1, 13] ^= 1
        reference, flipped = crc_bits_batch(data)
        assert not np.array_equal(flipped, reference)

    def test_width(self):
        bits = random_bits(3 * 40, 10).reshape(3, 40)
        assert crc_bits_batch(bits, 32).shape == (3, 32)
        assert crc_bits_batch(bits, 16).shape == (3, 16)

    def test_deterministic(self):
        data = random_bits(64, 11)[None, :]
        assert np.array_equal(crc_bits_batch(data), crc_bits_batch(data.copy()))


class TestCodecConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CodecConfig(info_bits_per_codeword=0)
        with pytest.raises(ValueError):
            CodecConfig(crc_width=24)
        with pytest.raises(ValueError):
            CodecConfig(info_bits_per_codeword=16, crc_width=32)

    def test_decision_budget_is_32_default_codewords(self):
        assert DECISION_BYTES == 32 * CodecConfig().decision_bytes

    def test_constraint_length_bounded_by_one_codewords_decisions(self):
        # 1034 steps x 1024 states fit the budget, 1035 x 2048 do not
        assert CodecConfig(constraint_length=11).decision_bytes == 1034 * 1024
        with pytest.raises(ValueError, match=r"^constraint_length 12 needs "
                                             r"2119680 bytes"):
            CodecConfig(constraint_length=12)
        # shorter codewords leave room for more states
        CodecConfig(info_bits_per_codeword=64, constraint_length=15)

    def test_info_capacity(self):
        assert CodecConfig().info_capacity == 992
