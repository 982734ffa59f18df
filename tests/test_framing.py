import numpy as np
import pytest

from linksim.baseband.framing import (PREAMBLE_SIDELOBE_BOUND, FrameConfig,
                                      add_cyclic_prefix, build_frame,
                                      build_preamble, chu_sequence,
                                      extract_data_symbols,
                                      remove_cyclic_prefix)


def payload_blocks(waveform, cfg):
    """The CP'd payload blocks of a frame waveform, one per row."""
    return waveform[cfg.header_len:].reshape(cfg.n_payload_blocks, cfg.block_len)


def gathered(blocks, cfg, stop=None):
    """The data symbols ``extract_data_symbols`` gives as views of
    ``blocks``, one copied row per frame; the views must tile them in
    order."""
    lead = np.shape(blocks)[:-2]
    views = extract_data_symbols(blocks, cfg, stop)
    assert [first for _, first, _ in views[:1]] == [0] * bool(views)
    assert [last for _, _, last in views[:-1]] == [first for _, first, _ in views[1:]]
    assert all(np.shares_memory(slots, blocks) for slots, _, _ in views)
    rows = [slots.reshape(lead + (last - first,)) for slots, first, last in views]
    return np.concatenate(rows, axis=-1) if rows else np.empty(lead + (0,), complex)


def cyclic_prefixes_intact(waveform, cfg):
    """Each payload block's first cp_len samples equal its last cp_len."""
    blocks = payload_blocks(waveform, cfg)
    return np.array_equal(blocks[:, : cfg.cp_len], blocks[:, -cfg.cp_len:])


class TestCyclicPrefix:
    def test_definition(self):
        block = np.array([1, 2, 3, 4], dtype=complex)
        extended = add_cyclic_prefix(block, 2)
        assert np.array_equal(extended, [3, 4, 1, 2, 3, 4])

    def test_remove_is_inverse(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.array_equal(remove_cyclic_prefix(add_cyclic_prefix(block, 32), 32),
                              block)

    def test_zero_cp(self):
        block = np.arange(8, dtype=complex)
        assert np.array_equal(add_cyclic_prefix(block, 0), block)

    def test_block_matrix_matches_per_row_calls(self):
        rng = np.random.default_rng(4)
        blocks = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        extended = add_cyclic_prefix(blocks, 4)
        assert np.array_equal(extended, [add_cyclic_prefix(b, 4) for b in blocks])
        assert np.array_equal(remove_cyclic_prefix(extended, 4),
                              [remove_cyclic_prefix(e, 4) for e in extended])

    def test_bad_cp_len(self):
        with pytest.raises(ValueError):
            add_cyclic_prefix(np.arange(4, dtype=complex), 4)

    def test_circular_convolution_equivalence(self):
        # CP turns linear convolution into per-block circular convolution
        # for any channel with delay spread <= cp_len
        rng = np.random.default_rng(1)
        n, cp = 64, 8
        block = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = np.array([1.0, 0.4 - 0.2j, 0.0, 0.25j])
        linear = np.convolve(add_cyclic_prefix(block, cp), h)
        received_block = linear[cp: cp + n]
        circular = np.fft.ifft(np.fft.fft(block) * np.fft.fft(h, n))
        assert np.allclose(received_block, circular, atol=1e-12)


class TestPreamble:
    def test_two_identical_halves(self):
        p = build_preamble()
        assert len(p) == 128
        assert np.array_equal(p[:64], p[64:])

    def test_constant_amplitude(self):
        assert np.allclose(np.abs(build_preamble()), 1.0)

    def test_ideal_periodic_autocorrelation(self):
        half = chu_sequence(64)
        spectrum = np.abs(np.fft.fft(half)) ** 2
        autocorr = np.fft.ifft(spectrum)
        sidelobes = np.abs(autocorr[1:]) / np.abs(autocorr[0])
        assert sidelobes.max() < PREAMBLE_SIDELOBE_BOUND

    def test_pilot_sequence_flat_spectrum(self):
        mags = np.abs(np.fft.fft(chu_sequence(256)))
        assert mags.min() > 0.99 * np.sqrt(256)


class TestFrameAssembly:
    def test_geometry_defaults(self):
        cfg = FrameConfig()
        assert cfg.data_symbols_per_block == 248
        assert cfg.capacity_symbols == 992
        assert cfg.frame_len == 128 + 5 * 288

    def test_cp_invariant_holds(self):
        cfg = FrameConfig(n_payload_blocks=2)
        rng = np.random.default_rng(2)
        waveform = build_frame(1.0 - 2.0 * rng.integers(0, 2, 400), cfg)
        assert cyclic_prefixes_intact(waveform, cfg)

    def test_waveform_length(self):
        cfg = FrameConfig(n_payload_blocks=3)
        assert len(build_frame(np.ones(10, dtype=complex), cfg)) == cfg.frame_len

    def test_data_roundtrip_through_blocks(self):
        cfg = FrameConfig(n_payload_blocks=2)
        rng = np.random.default_rng(3)
        data = 1.0 - 2.0 * rng.integers(0, 2, cfg.capacity_symbols)
        blocks = remove_cyclic_prefix(payload_blocks(build_frame(data, cfg), cfg),
                                      cfg.cp_len)
        assert np.array_equal(gathered(blocks, cfg), data)

    @pytest.mark.parametrize("pilots", [0, 1, 8, 32])
    def test_group_frames_and_data_follow_the_data_mask(self, pilots):
        # a (frames, symbols) matrix gives each row its lone frame, and the
        # data come back from the data_mask positions, block after block
        cfg = FrameConfig(n_payload_blocks=3, pilots_per_block=pilots)
        rng = np.random.default_rng(pilots)
        data = rng.standard_normal((4, cfg.capacity_symbols - 5)) + 0j
        group = build_frame(data, cfg)
        assert group.shape == (4, cfg.frame_len)
        for row, symbols in zip(group, data):
            assert np.array_equal(row, build_frame(symbols, cfg))
        blocks = rng.standard_normal((4, 3, cfg.fft_size)) + 0j
        assert np.array_equal(gathered(blocks, cfg),
                              blocks[..., cfg.data_mask].reshape(4, -1))
        assert np.array_equal(gathered(blocks[0], cfg),
                              blocks[0][:, cfg.data_mask].reshape(-1))
        # the first symbols only: none, inside a block and its runs, on
        # their boundaries
        full = gathered(blocks, cfg)
        run = cfg.fft_size // max(pilots, 1) - (pilots > 0)
        for stop in {0, 1, run - 1, run, run + 1, cfg.data_symbols_per_block,
                     cfg.data_symbols_per_block + 2 * run + 3,
                     cfg.capacity_symbols - 1} & set(range(cfg.capacity_symbols)):
            assert np.array_equal(gathered(blocks, cfg, stop), full[:, :stop])
        with pytest.raises(ValueError, match="data symbols"):
            extract_data_symbols(blocks, cfg, cfg.capacity_symbols + 1)

    def test_capacity_overflow(self):
        cfg = FrameConfig(n_payload_blocks=1)
        with pytest.raises(ValueError, match="capacity"):
            build_frame(np.ones(cfg.capacity_symbols + 1, dtype=complex), cfg)

    def test_filler_is_unit_modulus(self):
        cfg = FrameConfig(n_payload_blocks=1)
        waveform = build_frame(np.ones(1, dtype=complex), cfg)
        assert np.allclose(np.abs(payload_blocks(waveform, cfg)), 1.0)

    def test_header_matches_frame(self):
        cfg = FrameConfig(n_payload_blocks=1)
        waveform = build_frame(np.ones(4, dtype=complex), cfg)
        assert len(cfg.header) == cfg.header_len
        assert np.array_equal(waveform[: cfg.header_len], cfg.header)

    def test_constants_are_read_only(self):
        cfg = FrameConfig()
        for name in ("pilot_positions", "pilot_values", "data_mask", "preamble",
                     "pilot_block", "pilot_spectrum", "header", "filler"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(fft_size=100)
        with pytest.raises(ValueError):
            FrameConfig(cp_len=256)
        with pytest.raises(ValueError):
            FrameConfig(pilots_per_block=7)   # does not divide 256
        with pytest.raises(ValueError):
            FrameConfig(n_payload_blocks=0)

    def test_cp_invariant_catches_corruption(self):
        cfg = FrameConfig(n_payload_blocks=1)
        waveform = build_frame(np.ones(4, dtype=complex), cfg)
        assert cyclic_prefixes_intact(waveform, cfg)
        waveform[cfg.header_len] += 1.0
        assert not cyclic_prefixes_intact(waveform, cfg)
