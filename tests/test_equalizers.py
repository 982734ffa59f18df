import numpy as np
import pytest

from linksim.baseband.equalizers import (EqualizerConfig, EqualizerVariant,
                                         fd_equalize, lms_train, td_equalize)
from linksim.errors import DegenerateChannelError

LMS = EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS)


def random_symbols(n, seed):
    rng = np.random.default_rng(seed)
    return (1.0 - 2.0 * rng.integers(0, 2, n)).astype(complex)


class TestFrequencyDomain:
    def test_identity_channel_is_passthrough(self):
        block = random_symbols(256, 0)
        out = fd_equalize(block, np.ones(256), 0.0)
        assert np.max(np.abs(out - block)) < 1e-12

    def test_three_tap_noiseless_exact(self):
        # circular channel with delay spread 2 (within any CP >= 2)
        rng = np.random.default_rng(1)
        n = 64
        tx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = np.array([1.0, 0.35 - 0.1j, 0.2j])
        rx = np.fft.ifft(np.fft.fft(tx) * np.fft.fft(h, n))
        out = fd_equalize(rx, np.fft.fft(h, n), 0.0)
        assert np.max(np.abs(out - tx)) / np.max(np.abs(tx)) < 1e-9

    def test_large_noise_drives_output_to_zero(self):
        block = random_symbols(64, 2)
        out = fd_equalize(block, np.ones(64), 1e12)
        assert np.max(np.abs(out)) < 1e-9

    def test_all_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            fd_equalize(np.ones(16, dtype=complex), np.zeros(16), 0.0)

    def test_zero_forcing_skips_dead_bins(self):
        h = np.ones(16, dtype=complex)
        h[3] = 0.0
        out = fd_equalize(np.ones(16, dtype=complex), h, 0.0)
        assert np.all(np.isfinite(out))

    def test_block_matrix_matches_per_row_calls(self):
        rng = np.random.default_rng(6)
        blocks = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        h = np.fft.fft([1.0, 0.35 - 0.1j, 0.2j], 64)
        rows = [fd_equalize(row, h, 0.1) for row in blocks]
        assert np.array_equal(fd_equalize(blocks, h, 0.1), rows)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fd_equalize(np.ones(16, dtype=complex), np.ones(8), 0.0)


class TestTimeDomainLms:
    def test_identity_channel_converges_to_impulse(self):
        # documented seed; residual MSE < 1e-3 after 500 symbols at step 0.01
        training = random_symbols(500, 3)
        w, errors = lms_train(training, training, LMS)
        tail_mse = np.mean(np.abs(errors[-100:]) ** 2)
        assert tail_mse < 1e-3
        center = LMS.lms_taps // 2
        assert abs(w[center] - 1.0) < 0.05
        off_center = np.delete(np.abs(w), center)
        assert off_center.max() < 0.05

    def test_two_tap_channel_zero_symbol_errors(self):
        rng = np.random.default_rng(4)
        training = random_symbols(800, 5)
        payload = random_symbols(2000, 6)
        tx = np.concatenate([training, payload])
        rx = np.convolve(tx, [1.0, 0.3])[: len(tx)]
        out = td_equalize(rx, training, LMS)
        decisions = np.where(out.real < 0, -1.0, 1.0)
        assert np.array_equal(decisions, payload.real)

    def test_zero_length_payload(self):
        training = random_symbols(200, 7)
        out = td_equalize(training, training, LMS)
        assert out.size == 0

    def test_insufficient_training_rejected(self):
        with pytest.raises(ValueError, match="training"):
            lms_train(np.ones(100, complex), np.ones(100, complex), LMS)

    def test_decision_directed_tracks(self):
        rng = np.random.default_rng(8)
        training = random_symbols(600, 9)
        payload = random_symbols(1500, 10)
        tx = np.concatenate([training, payload])
        rx = np.convolve(tx, [1.0, 0.25])[: len(tx)]
        cfg = EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS,
                              decision_directed=True)
        out = td_equalize(rx, training, cfg,
                          constellation=np.array([1.0 + 0j, -1.0 + 0j]))
        decisions = np.where(out.real < 0, -1.0, 1.0)
        assert np.array_equal(decisions, payload.real)

    def test_decision_directed_needs_constellation(self):
        cfg = EqualizerConfig(variant=EqualizerVariant.TIME_DOMAIN_LMS,
                              decision_directed=True)
        training = random_symbols(200, 11)
        with pytest.raises(ValueError, match="constellation"):
            td_equalize(np.concatenate([training, training]), training, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EqualizerConfig(lms_taps=4)
        with pytest.raises(ValueError):
            EqualizerConfig(lms_step=0.0)
        with pytest.raises(ValueError):
            EqualizerConfig(noise_variance_hint=-1.0)
