import numpy as np
import pytest

from linksim.baseband.modulation import (ModulationScheme, SpreadingConfig,
                                         constellation_points, demodulate,
                                         hard_decisions, modulate, papr_db,
                                         spread, despread, thue_morse)

BPSK = ModulationScheme.BPSK
QPSK = ModulationScheme.QPSK


class TestModulation:
    def test_bpsk_convention(self):
        symbols = modulate(np.array([0, 1, 0]), BPSK)
        assert np.array_equal(symbols, [1.0, -1.0, 1.0])

    def test_qpsk_gray_adjacency(self):
        # walk the constellation by angle; neighbors differ in exactly one bit
        bits = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
        points = [modulate(b, QPSK)[0] for b in bits]
        order = np.argsort([np.angle(p) for p in points])
        ring = [bits[i] for i in order]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert int(np.sum(a != b)) == 1

    def test_unit_average_energy(self):
        rng = np.random.default_rng(0)
        for scheme in (BPSK, QPSK):
            bits = rng.integers(0, 2, 4096)
            symbols = modulate(bits, scheme)
            assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for scheme in (BPSK, QPSK):
            bits = rng.integers(0, 2, 512).astype(np.uint8)
            recovered = hard_decisions(demodulate(modulate(bits, scheme), scheme))
            assert np.array_equal(recovered, bits)

    def test_qpsk_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([1, 0, 1]), QPSK)

    def test_bits_per_symbol(self):
        assert BPSK.bits_per_symbol == 1
        assert QPSK.bits_per_symbol == 2


class TestSpreading:
    def test_sf1_identity(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        cfg = SpreadingConfig(1)
        assert np.array_equal(spread(bits, cfg), bits)
        assert np.array_equal(despread(1.0 - 2.0 * bits, cfg), 1.0 - 2.0 * bits)

    def test_sf8_roundtrip(self):
        cfg = SpreadingConfig(8)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        chips = spread(bits, cfg)
        assert chips.size == 8 * bits.size
        soft = despread(1.0 - 2.0 * chips, cfg)
        assert np.array_equal(hard_decisions(soft), bits)
        assert np.allclose(np.abs(soft), 1.0)

    def test_despreading_gain(self):
        # chip-level noise sigma^2 becomes sigma^2 / 8 on the decision variable
        cfg = SpreadingConfig(8)
        rng = np.random.default_rng(3)
        sigma2 = 0.7
        n_bits = 200_000
        chips = spread(np.zeros(n_bits, dtype=np.uint8), cfg)
        soft_chips = (1.0 - 2.0 * chips) + rng.normal(0, np.sqrt(sigma2),
                                                      chips.size)
        decision = despread(soft_chips, cfg)
        measured = np.var(decision - 1.0)
        assert measured == pytest.approx(sigma2 / 8, rel=0.05)

    def test_invalid_sf(self):
        with pytest.raises(ValueError):
            SpreadingConfig(0)

    def test_pattern_is_thue_morse(self):
        bits = thue_morse(64)
        assert bits[:8].tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
        # t(2j) = t(j) and t(2j + 1) = 1 - t(j)
        assert np.array_equal(bits[0::2], bits[:32])
        assert np.array_equal(bits[1::2], 1 - bits[:32])


class TestPapr:
    def test_bpsk_zero_db(self):
        bits = np.random.default_rng(4).integers(0, 2, 1024)
        assert papr_db(modulate(bits, BPSK)) == pytest.approx(0.0, abs=1e-12)

    def test_qpsk_zero_db(self):
        bits = np.random.default_rng(5).integers(0, 2, 1024)
        assert papr_db(modulate(bits, QPSK)) == pytest.approx(0.0, abs=1e-12)

    def test_multitone_contrast(self):
        # 64 equal-amplitude random-phase tones: distinctly non-constant
        rng = np.random.default_rng(6)
        n = 1024
        t = np.arange(n)
        phases = rng.uniform(0, 2 * np.pi, 64)
        tones = [np.exp(1j * (2 * np.pi * k * t / n + ph))
                 for k, ph in zip(range(1, 65), phases)]
        waveform = np.sum(tones, axis=0) / np.sqrt(64)
        assert papr_db(waveform) > 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            papr_db(np.array([]))


@pytest.mark.parametrize("scheme", list(ModulationScheme))
def test_constellation_points_are_every_bit_pattern_modulated(scheme):
    bps = scheme.bits_per_symbol
    patterns = (np.arange(2 ** bps)[:, None] >> np.arange(bps)[::-1]) & 1
    points = constellation_points(scheme)
    # bit for bit, as the decision-directed TD-LMS equalizer slices against
    assert points.tobytes() == modulate(patterns.reshape(-1), scheme).tobytes()
