import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.baseband import (ChainConfig, ChannelKnowledge, CodecConfig,
                              EqualizerConfig, EqualizerVariant,
                              ModulationScheme, SpreadingConfig, build_frame,
                              decode_frames, demodulate, despread, fd_equalize,
                              modulate, rx_front_end, track_phase, tx_chain,
                              wrap_phase)
from linksim.baseband.chain import _demap
from linksim.baseband.framing import FrameConfig, extract_data_symbols
from linksim.channel import (ChannelModel, ChannelTap, apply_channel,
                             estimate_frequency_response, make_preset)
from linksim.errors import CapacityError

IDENTITY = ChannelKnowledge(freq_response=np.ones(256), noise_variance=0.0)


def payload(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


def one_frame(tx, model, seed=0):
    """``tx`` through ``model`` with noise seed ``seed`` as a group of one;
    returns its row."""
    return apply_channel(np.asarray(tx)[None], [model], [seed])[0]


def receive(waveform, cfg, knowledge=None):
    """Front end and decode of one frame, a group of one; returns the
    frame's row of ``DecodedFrames`` as (info_bits, codewords_failed,
    channel_bit_errors or None) and the group's sync state."""
    soft, sync, received = rx_front_end([waveform], cfg, [knowledge])
    assert received[0], "the frame was lost"
    decoded = decode_frames(soft, cfg)
    errors = decoded.channel_bit_errors
    return (decoded.info_bits[0], int(decoded.codewords_failed[0]),
            None if errors is None else int(errors[0])), sync


def loopback(cfg, bits, knowledge=IDENTITY):
    return receive(tx_chain(bits, cfg), cfg, knowledge)[0]


class TestFrameSearch:
    """The front end looks for a frame at every offset where it fits whole,
    up to ``timing_search``."""

    # a frame preceded by 20 zero samples and followed by ``tail`` more; a
    # negative tail cuts the frame short, so no whole frame starts at 20
    @pytest.mark.parametrize("timing_search, tail, offset", [
        (None, 15, 20), (20, 15, 20), (64, 15, 20), (19, 15, None),
        (8, 15, None), (0, 15, None), (None, -5, None)])
    def test_offsets_where_the_frame_fits_up_to_timing_search(
            self, timing_search, tail, offset):
        cfg = ChainConfig.for_payload(300, codec=None,
                                      timing_search=timing_search)
        bits = payload(300, 3)
        waveform = np.concatenate([np.zeros(20, complex), tx_chain(bits, cfg),
                                   np.zeros(15, complex)])
        waveform = waveform[: 20 + cfg.frame.frame_len + tail]
        if offset is None:
            soft, sync, received = rx_front_end([waveform], cfg, [IDENTITY])
            assert sync.timing_offset.tolist() == [-1]
            assert received.tolist() == [False] and soft.shape == (0, 300)
        else:
            (info, _, _), sync = receive(waveform, cfg, IDENTITY)
            assert sync.timing_offset.tolist() == [offset]
            assert np.array_equal(info, bits)

    def test_waveform_shorter_than_a_frame_is_a_caller_error(self):
        cfg = ChainConfig.for_payload(300, codec=None)
        with pytest.raises(ValueError, match="does not fit"):
            rx_front_end([tx_chain(payload(300, 5), cfg)[:-1]], cfg, [IDENTITY])


class TestLoopback:
    @pytest.mark.parametrize("sf", [1, 2, 8])
    @pytest.mark.parametrize("scheme", [ModulationScheme.BPSK,
                                        ModulationScheme.QPSK])
    @pytest.mark.parametrize("variant", [EqualizerVariant.FREQUENCY_DOMAIN_MMSE,
                                         EqualizerVariant.TIME_DOMAIN_LMS])
    def test_identity_channel_matrix(self, sf, scheme, variant):
        cfg = ChainConfig.for_payload(
            500, codec=CodecConfig(info_bits_per_codeword=256),
            modulation=scheme, spreading=SpreadingConfig(sf),
            equalizer=EqualizerConfig(variant=variant))
        bits = payload(500, sf * 10 + scheme.bits_per_symbol)
        info, failed, _ = loopback(cfg, bits)
        assert np.array_equal(info, bits)
        assert failed == 0

    def test_defaults_bit_exact(self):
        cfg = ChainConfig.for_payload(992)
        bits = payload(992, 0)
        info, failed, channel_errors = loopback(cfg, bits)
        assert np.array_equal(info, bits)
        assert (failed, channel_errors) == (0, 0)

    def test_uncoded_loopback(self):
        cfg = ChainConfig.for_payload(300, codec=None)
        bits = payload(300, 1)
        info, failed, channel_errors = loopback(cfg, bits)
        assert np.array_equal(info, bits)
        assert failed == 0 and channel_errors is None

    def test_multi_codeword_payload(self):
        cfg = ChainConfig.for_payload(2500)
        assert cfg.n_codewords() == 3
        bits = payload(2500, 2)
        info, failed, _ = loopback(cfg, bits)
        assert np.array_equal(info, bits)
        assert failed == 0

    def test_frames_decode_together_as_they_do_alone(self):
        # one decode_frames call over three frames of three codewords each,
        # one of them noisy enough that some codewords fail their CRC
        cfg = ChainConfig.for_payload(2500)
        knowledge = ChannelKnowledge(np.ones(256), 1.0)
        soft = []
        for seed, snr in ((0, 30.0), (1, -1.0), (2, 6.0)):
            model = make_preset("coupling-los", snr_db=snr)
            waveform = one_frame(tx_chain(payload(2500, seed), cfg), model, seed)
            soft.append(rx_front_end([waveform], cfg, [knowledge])[0][0])
        together = decode_frames(np.stack(soft), cfg)
        assert together.codewords_failed[0] == 0
        assert 0 < together.codewords_failed[1] < 3
        for f, row in enumerate(soft):
            alone = decode_frames(row[None, :], cfg)
            assert np.array_equal(together.info_bits[f], alone.info_bits[0])
            assert together.codewords_failed[f] == alone.codewords_failed[0]
            assert together.channel_bit_errors[f] == alone.channel_bit_errors[0]


class TestMultipath:
    def test_fde_over_harsh_preset_noiseless(self):
        cfg = ChainConfig.for_payload(992)
        model = make_preset("coupling-harsh")
        bits = payload(992, 3)
        rxw = one_frame(tx_chain(bits, cfg), model)
        knowledge = ChannelKnowledge(estimate_frequency_response(model, 256), 0.0)
        (info, failed, _), _ = receive(rxw, cfg, knowledge)
        assert np.array_equal(info, bits)
        assert failed == 0

    def test_pilot_ls_estimator_matches_genie(self):
        cfg = ChainConfig.for_payload(992, channel_estimator="pilot-ls")
        model = make_preset("coupling-mild")
        bits = payload(992, 4)
        (info, failed, _), _ = receive(one_frame(tx_chain(bits, cfg), model),
                                       cfg)
        assert np.array_equal(info, bits)
        assert failed == 0

    def test_td_equalizer_under_mild_multipath(self):
        cfg = ChainConfig.for_payload(
            400, codec=CodecConfig(info_bits_per_codeword=256),
            equalizer=EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS),
            channel_estimator="pilot-ls")
        model = make_preset("coupling-mild")
        bits = payload(400, 5)
        (info, _, _), _ = receive(one_frame(tx_chain(bits, cfg), model), cfg)
        assert np.array_equal(info, bits)

    def test_cfo_phase_and_noise(self):
        cfg = ChainConfig.for_payload(992)
        model = make_preset("coupling-los", cfo=0.008, phase_offset=-1.2,
                            snr_db=15.0)
        bits = payload(992, 6)
        knowledge = ChannelKnowledge(estimate_frequency_response(model, 256),
                                     10 ** (-1.5))
        (info, failed, _), sync = receive(
            one_frame(tx_chain(bits, cfg), model, 77), cfg, knowledge)
        assert np.array_equal(info, bits)
        assert failed == 0
        assert sync.cfo_estimate[0] == pytest.approx(0.008, abs=2e-4)


# a coded-harsh frame's worth of received samples, with exact zeros and
# axis points among them
SEGMENT = np.concatenate([
    [0j, 1.0, -1.0, 1j, -1j, complex(0.0, -0.0)],
    [1.0, 1j] @ np.random.default_rng(8).standard_normal((2, 3002))])


class TestFrontEndShortcuts:
    """What ``rx_front_end`` does once per knowledge object or per frame is
    the per-frame or per-sample computation it replaces, bit for bit."""

    # acquire_sync wraps its phase estimate to (-pi, pi] with wrap_phase,
    # which yields 0.0, never -0.0
    @settings(max_examples=300, deadline=None)
    @given(phase=st.floats(-np.pi, np.pi, exclude_min=True).filter(
        lambda p: math.copysign(1.0, p) > 0 or p != 0))
    @example(phase=0.0)
    @example(phase=np.pi)
    @example(phase=np.nextafter(-np.pi, 0.0))
    @example(phase=1e-300)
    @example(phase=5e-324)
    @example(phase=-5e-324)
    def test_zero_cfo_derotation_is_the_per_sample_form(self, phase):
        n = np.arange(len(SEGMENT))
        per_sample = SEGMENT * np.exp(-1j * (0.0 * n + phase))
        scalar = SEGMENT * np.exp(-1j * phase)
        assert np.array_equal(scalar.view(np.uint64), per_sample.view(np.uint64))
        assert math.copysign(1.0, wrap_phase(-0.0)) == 1.0

    @pytest.mark.parametrize("strongest", [0, 4, 24])
    def test_cached_response_is_the_inline_re_reference(self, strongest):
        # even-bounce reflections keep their gain through the antenna pattern
        taps = tuple(ChannelTap(d, (1.0 if d == strongest else 0.4) * np.exp(1j * d),
                                bounce_count=0 if d == 0 else 2)
                     for d in (0, 4, 9, 24))
        h = estimate_frequency_response(ChannelModel(taps=taps), 256)
        h_time = np.fft.ifft(h)
        d0 = int(np.argmax(np.abs(h_time)))
        k = np.arange(256)
        inline = h * np.exp(2j * np.pi * k * d0 / 256)
        cached = ChannelKnowledge(h, 0.0).timing_referenced_response
        assert d0 == strongest
        assert np.array_equal(cached.view(np.uint64), inline.view(np.uint64))

    def test_shared_knowledge_takes_one_ifft(self, monkeypatch):
        cfg = ChainConfig.for_payload(300, codec=None, timing_search=8)
        model = make_preset("coupling-harsh", snr_db=20.0)
        knowledge = ChannelKnowledge(estimate_frequency_response(model, 256), 0.0)
        calls = []
        ifft = np.fft.ifft

        def spy(a, *args, **kwargs):
            calls.append(a is knowledge.freq_response)
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        for seed in range(20):
            waveform = one_frame(tx_chain(payload(300, seed), cfg), model, seed)
            rx_front_end([waveform], cfg, [knowledge])
        assert calls.count(True) == 1


    def test_pilot_ls_takes_one_fft_of_the_pilot_block(self, monkeypatch):
        cfg = ChainConfig.for_payload(300, codec=None, channel_estimator="pilot-ls")
        model = make_preset("coupling-mild", snr_db=20.0)
        calls = []
        fft = np.fft.fft

        def spy(a, *args, **kwargs):
            calls.append(a is cfg.frame.pilot_block)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        for seed in range(20):
            waveform = one_frame(tx_chain(payload(300, seed), cfg), model, seed)
            rx_front_end([waveform], cfg, [None])
        assert calls.count(True) <= 1


# receivers for the group property: a coded one that corrects CFO on a
# channel with an offset, and an uncoded QPSK one with a pinned CFO
GROUP_RECEIVERS = (
    (ChainConfig.for_payload(600, codec=CodecConfig(info_bits_per_codeword=320),
                             timing_search=8),
     {"cfo": 0.003, "phase_offset": 1.3}),
    (ChainConfig.for_payload(600, codec=None, modulation=ModulationScheme.QPSK,
                             correct_cfo=False, timing_search=8), {}),
)


class TestGroupFrontEnd:
    """A group of frames through the front end gives each row what the row
    alone, a group of one, gives: the same sync state and soft bits, bit
    for bit, or the same loss."""

    @settings(max_examples=25, deadline=None)
    @given(receiver=st.sampled_from(GROUP_RECEIVERS),
           rows=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                                   st.sampled_from((-10.0, 0.0, 4.0, 12.0, 30.0)),
                                   st.booleans()),
                         min_size=1, max_size=9))
    @example(receiver=GROUP_RECEIVERS[0],
             rows=[(1, -10.0, False), (2, 12.0, True), (3, 4.0, False)])
    def test_each_surviving_row_is_its_frame_alone(self, receiver, rows):
        cfg, overrides = receiver
        model = make_preset("coupling-harsh", **overrides)
        genie = ChannelKnowledge(estimate_frequency_response(model, 256), 0.05)
        zero = ChannelKnowledge(np.zeros(256), 0.0)
        frames = np.array([tx_chain(payload(cfg.payload_bits, seed), cfg)
                           for seed, _, _ in rows])
        waveforms = apply_channel(
            frames, [replace(model, snr_db=snr) for _, snr, _ in rows],
            [seed for seed, _, _ in rows])
        knowledge = [zero if zeroed else genie for _, _, zeroed in rows]
        soft, sync, received = rx_front_end(waveforms, cfg, knowledge)
        assert received.shape == (len(rows),)
        assert soft.shape == (np.count_nonzero(received), cfg.coded_bits_total())
        survivors = iter(soft)
        for r, (waveform, k) in enumerate(zip(waveforms, knowledge)):
            alone, alone_sync, alone_received = rx_front_end(waveform[None, :], cfg, [k])
            for field in ("timing_offset", "cfo_estimate", "phase"):
                assert (getattr(sync, field)[r: r + 1].tobytes()
                        == getattr(alone_sync, field).tobytes())
            assert received[r] == alone_received[0]
            if received[r]:
                assert np.array_equal(next(survivors).view(np.uint64),
                                      alone[0].view(np.uint64))

    def test_a_lost_frame_is_marked_not_raised(self):
        # rows: noise with no frame in it, a clean frame whose genie response
        # is zero on every bin, a clean frame
        cfg = ChainConfig.for_payload(300, codec=None, timing_search=8)
        bits = payload(300, 12)
        frame = tx_chain(bits, cfg)
        noise = [1.0, 1j] @ np.random.default_rng(13).standard_normal((2, len(frame)))
        zero = ChannelKnowledge(np.zeros(256), 0.0)
        soft, sync, received = rx_front_end([noise, frame, frame], cfg,
                                            [IDENTITY, zero, IDENTITY])
        assert sync.timing_offset.tolist() == [-1, 0, 0]
        assert received.tolist() == [False, False, True]
        assert np.array_equal(decode_frames(soft, cfg).info_bits, bits[None, :])

    def test_group_transmit_is_each_row_alone(self):
        cfg = ChainConfig.for_payload(
            500, codec=CodecConfig(info_bits_per_codeword=256),
            modulation=ModulationScheme.QPSK, spreading=SpreadingConfig(2))
        bits = np.array([payload(500, seed) for seed in range(4)])
        group = tx_chain(bits, cfg)
        assert group.shape == (4, cfg.frame.frame_len)
        for row, frame_bits in zip(group, bits):
            assert np.array_equal(row, tx_chain(frame_bits, cfg))


    @pytest.mark.parametrize("cfg", [
        ChainConfig.for_payload(300, timing_search=8),
        ChainConfig.for_payload(300, codec=None, spreading=SpreadingConfig(2),
                                modulation=ModulationScheme.QPSK),
        ChainConfig.for_payload(
            300, codec=None, frame=FrameConfig(pilots_per_block=0),
            equalizer=EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS)),
    ], ids=["coded", "uncoded-spread-qpsk", "no-pilots-td-lms"])
    def test_a_group_of_zero_frames_is_empty_at_every_stage(self, cfg):
        frames = tx_chain(np.zeros((0, cfg.payload_bits), dtype=np.uint8), cfg)
        assert frames.shape == (0, cfg.frame.frame_len)
        waveforms = apply_channel(frames, [], [])
        soft, sync, received = rx_front_end(waveforms, cfg, [])
        assert soft.shape == (0, cfg.coded_bits_total())
        assert sync.timing_offset.shape == received.shape == (0,)
        decoded = decode_frames(soft, cfg)
        assert decoded.info_bits.shape == (0, cfg.payload_bits)
        assert decoded.codewords_failed.shape == (0,)


def _arrays(value):
    """The arrays of an argument list or a result: arrays, the fields of a
    dataclass (``SyncState``, ``DecodedFrames``, ``ChannelKnowledge``) and
    the items of a tuple or list, in order."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value)
                for a in _arrays(getattr(value, f.name))]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


def _complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _bits(shape, seed):
    return np.random.default_rng(seed).integers(0, 2, shape).astype(np.uint8)


def _front_end_args(cfg, seed):
    """A received group of three frames on coupling-mild, genie-known."""
    model = make_preset("coupling-mild", snr_db=6.0)
    knowledge = ChannelKnowledge(estimate_frequency_response(model, 256), 0.25)
    bits = np.array([payload(cfg.payload_bits, seed + f) for f in range(3)])
    waveforms = apply_channel(tx_chain(bits, cfg), [model] * 3,
                              [seed + f for f in range(3)])
    return waveforms, cfg, [knowledge] * 3


CODED = ChainConfig.for_payload(300, timing_search=8)
SPREAD = ChainConfig.for_payload(
    300, codec=None, spreading=SpreadingConfig(2),
    modulation=ModulationScheme.QPSK, channel_estimator="pilot-ls",
    timing_search=8)
LMS = ChainConfig.for_payload(
    300, codec=None, timing_search=8,
    equalizer=EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS))
PILOTS = FrameConfig()
# public receive stages, each with the arguments of two groups
OWNERSHIP = {
    "fd_equalize": lambda: (fd_equalize, [
        (_complex((3, 4, 256), 1), _complex((3, 256), 2), np.full(3, 0.1)),
        # CP-free blocks as a strided view, as the front end hands them
        (_complex((3, 4, 288), 3)[..., 32:], _complex((3, 256), 4),
         np.array([0.0, 0.5, 2.0]))]),
    "track_phase": lambda: (track_phase, [
        (_complex((3, 4, 256), seed), PILOTS.pilot_values, PILOTS.pilot_positions)
        for seed in (5, 6)]),
    "despread-sf1": lambda: (despread, [
        (np.random.default_rng(seed).standard_normal((3, 64)), SpreadingConfig(1))
        for seed in (7, 8)]),
    "despread-sf4": lambda: (despread, [
        (np.random.default_rng(seed).standard_normal((3, 64)), SpreadingConfig(4))
        for seed in (9, 10)]),
    "rx_front_end-coded": lambda: (rx_front_end, [
        _front_end_args(CODED, seed) for seed in (11, 21)]),
    "rx_front_end-spread-pilot-ls": lambda: (rx_front_end, [
        _front_end_args(SPREAD, seed) for seed in (31, 41)]),
    "rx_front_end-td-lms": lambda: (rx_front_end, [
        _front_end_args(LMS, seed) for seed in (51, 61)]),
    "decode_frames-coded": lambda: (decode_frames, [
        (rx_front_end(*_front_end_args(CODED, seed))[0], CODED)
        for seed in (71, 81)]),
    "decode_frames-uncoded": lambda: (decode_frames, [
        (rx_front_end(*_front_end_args(SPREAD, seed))[0], SPREAD)
        for seed in (91, 101)]),
    "tx_chain-coded": lambda: (tx_chain, [
        (_bits((3, CODED.payload_bits), seed), CODED) for seed in (111, 121)]),
    "tx_chain-spread-qpsk": lambda: (tx_chain, [
        (_bits((3, SPREAD.payload_bits), seed), SPREAD) for seed in (131, 141)]),
    # 700 symbols end inside a pilot run of the third block
    "build_frame": lambda: (build_frame, [
        (_complex((3, 700), seed), PILOTS) for seed in (151, 161)]),
    "modulate-bpsk": lambda: (modulate, [
        (_bits((3, 64), seed), ModulationScheme.BPSK) for seed in (171, 181)]),
    "modulate-qpsk": lambda: (modulate, [
        (_bits((3, 64), seed), ModulationScheme.QPSK) for seed in (191, 201)]),
    # the data slots of whole blocks, a strided view, as the front end
    # demaps them
    "demodulate-bpsk-slots": lambda: (demodulate, [
        (extract_data_symbols(_complex((3, 4, 256), seed), PILOTS)[0][0],
         ModulationScheme.BPSK) for seed in (211, 221)]),
    "demodulate-qpsk-slots": lambda: (demodulate, [
        (extract_data_symbols(_complex((3, 4, 256), seed), PILOTS)[0][0],
         ModulationScheme.QPSK) for seed in (231, 241)]),
}


class TestOwnership:
    """A public transmit or receive stage writes to none of its arguments,
    returns no array that shares memory with one and keeps nothing from one
    call to the next."""

    @pytest.mark.parametrize("name", OWNERSHIP)
    def test_arguments_untouched_and_results_their_own(self, name):
        stage, groups = OWNERSHIP[name]()
        held = []
        for args in groups:
            before = [a.tobytes() for a in _arrays(args)]
            result = stage(*args)
            assert [a.tobytes() for a in _arrays(args)] == before
            assert _arrays(result)
            assert not any(np.shares_memory(r, a) for r in _arrays(result)
                           for a in _arrays(args))
            held.append(result)

        def contents(result):
            return [(a.dtype, a.shape, a.tobytes()) for a in _arrays(result)]

        # both groups' results, read while held at once, are what fresh
        # calls give each group
        held = [contents(result) for result in held]
        assert held == [contents(stage(*args)) for args in groups]


class TestContracts:
    def test_capacity_overflow_names_symbols(self):
        frame = FrameConfig(n_payload_blocks=1)
        with pytest.raises(CapacityError, match=r"\d+ data symbols"):
            ChainConfig(payload_bits=992, frame=frame)

    def test_payload_length_must_match_config(self):
        cfg = ChainConfig.for_payload(100, codec=None)
        with pytest.raises(ValueError, match="payload bits"):
            tx_chain(payload(99, 7), cfg)

    def test_genie_mode_requires_knowledge(self):
        cfg = ChainConfig.for_payload(100, codec=None)
        waveform = tx_chain(payload(100, 8), cfg)
        with pytest.raises(ValueError, match="genie"):
            rx_front_end([waveform], cfg, [None])

    def test_one_knowledge_entry_per_frame(self):
        cfg = ChainConfig.for_payload(100, codec=None)
        waveform = tx_chain(payload(100, 8), cfg)
        with pytest.raises(ValueError, match="1 channel knowledge entries for 2 frames"):
            rx_front_end([waveform, waveform], cfg, [IDENTITY])

    def test_one_waveform_is_a_caller_error(self):
        # a lone waveform is a group of one: [waveform] or a (1, samples) matrix
        cfg = ChainConfig.for_payload(100, codec=None)
        waveform = tx_chain(payload(100, 8), cfg)
        with pytest.raises(ValueError, match="group of frames"):
            rx_front_end(waveform, cfg, [IDENTITY])

    def test_frame_geometry(self):
        # 992 payload bits fill one 2060-bit codeword; the waveform is the
        # 128-sample preamble, then the pilot block and the payload blocks,
        # each 256 samples behind a 32-sample CP
        cfg = ChainConfig.for_payload(992)
        assert cfg.coded_bits_total() == 2060
        waveform = tx_chain(payload(992, 9), cfg)
        assert len(waveform) == 128 + (cfg.frame.n_payload_blocks + 1) * (256 + 32)
        soft, _, _ = rx_front_end([waveform], cfg, [IDENTITY])
        assert soft.shape == (1, 2060)

    def test_channel_bit_errors_track_channel(self):
        cfg = ChainConfig.for_payload(992)
        model = make_preset("coupling-los", snr_db=4.0)
        bits = payload(992, 10)
        knowledge = ChannelKnowledge(np.ones(256), 10 ** (-0.4))
        (info, failed, channel_errors), _ = receive(
            one_frame(tx_chain(bits, cfg), model, 11), cfg, knowledge)
        # raw channel BER at 4 dB per-sample SNR is ~1.25e-2
        assert 0.002 < channel_errors / cfg.coded_bits_total() < 0.04
        assert np.array_equal(info, bits) and failed == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig.for_payload(0, codec=None)
        with pytest.raises(ValueError):
            ChainConfig.for_payload(16, codec=None, channel_estimator="magic")

    def test_td_lms_taps_must_fit_the_training_header(self):
        # the 416-symbol default header trains at most 41 (odd) taps
        for taps, ok in ((41, True), (43, False)):
            equalizer = EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS,
                                        lms_taps=taps)
            if ok:
                ChainConfig.for_payload(16, codec=None, equalizer=equalizer)
            else:
                with pytest.raises(ValueError, match="^equalizer lms_taps 43 "):
                    ChainConfig.for_payload(16, codec=None, equalizer=equalizer)

    @pytest.mark.parametrize("scheme", [ModulationScheme.BPSK,
                                        ModulationScheme.QPSK])
    def test_tx_waveform_papr_is_zero_db(self, scheme):
        # every frame sample (preamble, pilots, payload, filler) is
        # unit-modulus, so the single-carrier waveform has 0 dB PAPR
        from linksim.baseband.modulation import papr_db
        cfg = ChainConfig.for_payload(500, codec=None, modulation=scheme)
        waveform = tx_chain(payload(500, 20), cfg)
        assert papr_db(waveform) == pytest.approx(0.0, abs=1e-12)


# Today's transmit and receive formulas, kept as references: the mapper's
# float temporaries, a padded (frames, capacity) symbol matrix written to
# the data_mask positions, and the receive side's gather of those positions
# into one symbol matrix before the demapper copies it again
def modulate_reference(bits, scheme):
    bits = np.asarray(bits, dtype=np.uint8)
    if scheme is ModulationScheme.BPSK:
        return (1.0 - 2.0 * bits).astype(np.complex128)
    i = 1.0 - 2.0 * bits[..., 0::2]
    q = 1.0 - 2.0 * bits[..., 1::2]
    return (i + 1j * q) / np.sqrt(2.0)


def build_frame_reference(data_symbols, cfg):
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    n = data_symbols.shape[-1]
    lead = data_symbols.shape[:-1]
    padded = np.empty(lead + (cfg.capacity_symbols,), dtype=np.complex128)
    padded[..., :n] = data_symbols
    padded[..., n:] = cfg.filler[: cfg.capacity_symbols - n]
    waveform = np.empty(lead + (cfg.frame_len,), dtype=np.complex128)
    waveform[..., : cfg.header_len] = cfg.header
    blocks = waveform[..., cfg.header_len:].reshape(
        lead + (cfg.n_payload_blocks, cfg.block_len))
    payload = blocks[..., cfg.cp_len:]
    payload[..., cfg.pilot_positions] = cfg.pilot_values
    payload[..., cfg.data_mask] = padded.reshape(
        lead + (cfg.n_payload_blocks, cfg.data_symbols_per_block))
    blocks[..., : cfg.cp_len] = blocks[..., cfg.fft_size:]
    return waveform


def demap_reference(blocks, cfg):
    frame = cfg.frame
    data = blocks[..., frame.data_mask].reshape(
        len(blocks), frame.n_payload_blocks * frame.data_symbols_per_block)
    symbols = data[:, : cfg.required_symbols()]
    if cfg.modulation is ModulationScheme.BPSK:
        soft = symbols.real.copy()
    else:
        soft = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],))
        soft[..., 0::2] = symbols.real * np.sqrt(2.0)
        soft[..., 1::2] = symbols.imag * np.sqrt(2.0)
    return soft[:, : cfg.chip_count()]


# received values whose bits a careless rewrite could change: signed zeros,
# subnormals, the largest finite values, infinities and NaN
SPECIAL = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                    complex(-0.0, -0.0), 5e-324 - 5e-324j, 1e308 + 1e308j,
                    complex(np.inf, -np.inf), complex(np.nan, 0.0)])


@st.composite
def slot_layouts(draw):
    """A scheme, a frame with 0, 4 or 8 pilots a block, a symbol count that
    ends inside a block, on a block boundary or at full capacity, a frame
    count and a seed."""
    scheme = draw(st.sampled_from(list(ModulationScheme)))
    fft_size = draw(st.sampled_from((16, 32, 64)))
    blocks = draw(st.integers(1, 4))
    frame = FrameConfig(fft_size=fft_size, cp_len=fft_size // 8,
                        n_payload_blocks=blocks,
                        pilots_per_block=draw(st.sampled_from((0, 4, 8))))
    per_block = frame.data_symbols_per_block
    end = draw(st.sampled_from(("inside a block", "block boundary", "full")))
    if end == "full":
        symbols = frame.capacity_symbols
    elif end == "block boundary":
        symbols = per_block * draw(st.integers(1, blocks))
    else:
        symbols = (per_block * draw(st.integers(0, blocks - 1))
                   + draw(st.integers(1, per_block - 1)))
    return (scheme, frame, symbols, draw(st.integers(0, 3)),
            draw(st.integers(0, 2 ** 32 - 1)))


def _with_special(values):
    """``values`` with every third sample, in memory order, a special one."""
    flat = values.reshape(-1)
    flat[::3] = np.resize(SPECIAL, flat[::3].size)
    return values


def _bit_equal(new, reference):
    return (new.shape == reference.shape and new.dtype == reference.dtype
            and np.array_equal(new.view(np.uint64), reference.view(np.uint64)))


class TestSlotsAgainstReference:
    """The mapper, the framer and the demapper, which write straight into
    and read straight from the data slots, give today's formulas' bytes,
    signed zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(layout=slot_layouts())
    def test_transmit_is_padded_symbols_in_the_slots(self, layout):
        scheme, frame, symbols, frames, seed = layout
        bits = _bits((frames, symbols * scheme.bits_per_symbol), seed)
        assert _bit_equal(modulate(bits, scheme), modulate_reference(bits, scheme))
        assert _bit_equal(build_frame(modulate(bits, scheme), frame),
                          build_frame_reference(modulate_reference(bits, scheme),
                                                frame))
        # any symbols, the special values among them
        data = _with_special(_complex((frames, symbols), seed))
        assert _bit_equal(build_frame(data, frame), build_frame_reference(data, frame))

    @settings(max_examples=200, deadline=None)
    @given(layout=slot_layouts(), odd=st.booleans())
    def test_receive_demaps_the_gathered_symbols(self, layout, odd):
        scheme, frame, symbols, frames, seed = layout
        # a QPSK payload of an odd chip count leaves its last chip unused
        chips = symbols * scheme.bits_per_symbol - (
            odd and scheme is ModulationScheme.QPSK)
        cfg = ChainConfig(payload_bits=chips, codec=None, modulation=scheme,
                          frame=frame)
        assert cfg.required_symbols() == symbols
        blocks = _with_special(
            _complex((frames, frame.n_payload_blocks, frame.fft_size), seed))
        assert _bit_equal(_demap(blocks, cfg), demap_reference(blocks, cfg))


class TestMemory:
    """A group through transmit and receive holds little beyond its result."""

    def test_a_transmit_group_peaks_below_twice_its_waveform(self):
        # a mux-baseband group: 21 frames (its trellis bound) of three
        # 512-bit codewords, 4160 samples each.  At the peak transmit holds
        # the waveform, the symbol matrix the framer reads (three quarters
        # of it) and the bits: tracemalloc reads 1.94 times the waveform
        # (2.72 with a float temporary in the mapper and a padded symbol
        # matrix in the framer).  The front end reads 2.03 times the
        # received group it takes, its peak in the equalizer; during the
        # demap it holds 1.24 times (2.01 with a gathered symbol matrix).
        cfg = ChainConfig.for_payload(
            1024, codec=CodecConfig(info_bits_per_codeword=512),
            correct_cfo=False, timing_search=8)
        assert cfg.frame.frame_len == 4160
        bits = _bits((21, cfg.payload_bits), 251)
        tx_chain(bits, cfg)                       # per-config caches filled
        tracemalloc.start()
        try:
            waveform = tx_chain(bits, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert waveform.shape == (21, 4160)
        assert peak <= 2.0 * waveform.nbytes
