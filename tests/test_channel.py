import math

import numpy as np
import pytest

from linksim.channel import (AntennaPattern, ChannelModel, ChannelTap,
                             CHANNEL_PRESETS, apply_channel, effective_taps,
                             estimate_frequency_response, make_preset)


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


def los_model(**kwargs):
    return ChannelModel(taps=(ChannelTap(0, 1.0, 0),), **kwargs)


class TestEffectiveTaps:
    def test_los_unscaled(self):
        taps = effective_taps(los_model())
        assert taps == [(0, 1.0 + 0j)]

    def test_odd_bounce_crosspol_penalty(self):
        model = ChannelModel(taps=(ChannelTap(0, 1.0, 0), ChannelTap(3, 1.0, 1)))
        gains = dict(effective_taps(model))
        assert abs(gains[3]) == pytest.approx(10 ** (-15 / 20), rel=1e-12)
        assert abs(gains[3]) == pytest.approx(0.1778, rel=1e-3)

    def test_even_bounce_sidelobe_penalty(self):
        model = ChannelModel(taps=(ChannelTap(0, 1.0, 0),
                                   ChannelTap(5, 1.0, 2, via_sidelobe=True)))
        gains = dict(effective_taps(model))
        assert abs(gains[5]) == pytest.approx(10 ** (-14 / 20), rel=1e-12)
        assert abs(gains[5]) == pytest.approx(0.1995, rel=1e-3)

    def test_odd_bounce_sidelobe_stacks_both_penalties(self):
        model = ChannelModel(taps=(ChannelTap(0, 1.0, 0),
                                   ChannelTap(2, 1.0, 3, via_sidelobe=True)))
        gains = dict(effective_taps(model))
        assert abs(gains[2]) == pytest.approx(10 ** (-29 / 20), rel=1e-12)


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(0)
        tx = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        assert np.allclose(apply_channel(tx, los_model()), tx)

    def test_pure_delay(self):
        model = ChannelModel(taps=(ChannelTap(5, 1.0, 0),))
        tx = np.arange(1, 21, dtype=complex)
        rx = apply_channel(tx, model)
        assert len(rx) == len(tx) + 5
        assert np.allclose(rx[5:], tx)
        assert np.allclose(rx[:5], 0.0)

    def test_output_length(self):
        model = make_preset("coupling-harsh")
        rx = apply_channel(np.ones(100, complex), model)
        assert len(rx) == 100 + 24

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.array([]), los_model())

    def test_bpsk_slicer_error_rate_matches_q(self):
        # per-sample SNR of 6 dB: hard-slicer error rate Q(sqrt(2*10^0.6))
        n = 400_000
        rng = np.random.default_rng(1)
        tx = (1.0 - 2.0 * rng.integers(0, 2, n)).astype(complex)
        rx = apply_channel(tx, los_model(snr_db=6.0, seed=42))
        errors = np.count_nonzero((rx.real < 0) != (tx.real < 0))
        p = q_function(math.sqrt(2 * 10 ** 0.6))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(errors / n - p) < 3 * sigma

    def test_determinism(self):
        model = make_preset("coupling-mild", snr_db=10.0, cfo=0.003, seed=7)
        tx = np.exp(1j * np.linspace(0, 5, 300))
        a = apply_channel(tx, model)
        b = apply_channel(tx.copy(), model)
        assert np.array_equal(a, b)

    def test_noiseless_linearity(self):
        model = make_preset("coupling-harsh", cfo=0.002, phase_offset=0.4)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        lhs = apply_channel(2.0 * x + 0.5j * y, model)
        rhs = 2.0 * apply_channel(x, model) + 0.5j * apply_channel(y, model)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_crosspol_monotonicity(self):
        taps = make_preset("coupling-harsh").taps
        rng = np.random.default_rng(3)
        tx = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        powers = []
        for rejection in (0.0, 5.0, 10.0, 20.0, 40.0):
            ant = AntennaPattern(crosspol_rejection=rejection)
            model = ChannelModel(taps=taps, antenna=ant)
            powers.append(np.sum(np.abs(apply_channel(tx, model)) ** 2))
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_crosspol_leaves_los_only_unchanged(self):
        tx = np.ones(50, complex)
        low = ChannelModel(taps=(ChannelTap(0, 1.0, 0),),
                           antenna=AntennaPattern(crosspol_rejection=0.0))
        high = ChannelModel(taps=(ChannelTap(0, 1.0, 0),),
                            antenna=AntennaPattern(crosspol_rejection=40.0))
        assert np.array_equal(apply_channel(tx, low), apply_channel(tx, high))

    def test_noise_variance_calibration(self):
        # empirical noise variance over 1e6 samples within 1% of configured
        n = 1_000_000
        tx = np.ones(n, dtype=complex)
        model = los_model(snr_db=10.0, seed=5)
        noise = apply_channel(tx, model) - tx
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(10 ** (-1.0), rel=0.01)

    def test_randomized_tap_phases_keep_los(self):
        model = make_preset("coupling-mild", randomize_tap_phases=True, seed=9)
        tx = np.ones(100, complex)
        a = apply_channel(tx, model)
        b = apply_channel(tx, model)
        assert np.array_equal(a, b)   # same seed, same draw
        c = apply_channel(tx, make_preset("coupling-mild", seed=9))
        assert not np.allclose(a, c)  # reflected phases differ from preset


def per_frame_channel(tx, model):
    """One frame through the channel, written out step by step: one
    generator from the model's seed draws the reflected taps' phases, then
    the noise."""
    rng = np.random.default_rng(model.seed)
    h = np.zeros(model.max_delay + 1, dtype=complex)
    for tap, (delay, gain) in zip(model.taps, effective_taps(model)):
        if tap.bounce_count > 0:
            gain *= np.exp(2j * np.pi * rng.random())
        h[delay] += gain
    rx = np.convolve(tx, h)
    n = np.arange(len(rx))
    rx = rx * np.exp(1j * (model.cfo * n + model.phase_offset))
    power = np.mean(np.abs(rx) ** 2)
    sigma2 = power / 10.0 ** (model.snr_db / 10.0)
    noise = rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx))
    return rx + noise * math.sqrt(sigma2 / 2.0)


class TestGroup:
    """A ``(frames, samples)`` group through the channel, one model a row."""

    def test_each_row_draws_tap_phases_then_noise_from_its_own_seed(self):
        rng = np.random.default_rng(4)
        tx = np.exp(2j * np.pi * rng.random((4, 300)))
        models = [make_preset(preset, randomize_tap_phases=True, snr_db=snr,
                              cfo=0.002, phase_offset=0.4, seed=seed)
                  for preset, snr, seed in (
                      ("coupling-harsh", 3.0, 11), ("coupling-mild", 10.0, 12),
                      ("coupling-harsh", -5.0, 13), ("coupling-los", 20.0, 14))]
        rows = apply_channel(tx, models)
        assert [len(row) for row in rows] == [324, 307, 324, 300]
        for row, frame, model in zip(rows, tx, models):
            expected = per_frame_channel(frame, model)
            assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))
            alone = apply_channel(frame, model)
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64))

    def test_one_model_per_row(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones((3, 10), complex), [los_model()] * 2)


class TestFrequencyResponse:
    def test_single_tap_all_ones(self):
        h = estimate_frequency_response(los_model(), 64)
        assert np.allclose(h, 1.0)

    def test_two_tap_hand_dft(self):
        model = ChannelModel(taps=(ChannelTap(0, 1.0, 0), ChannelTap(2, 0.5, 2)))
        h = estimate_frequency_response(model, 4)
        k = np.arange(4)
        expected = 1.0 + 0.5 * np.exp(-2j * np.pi * 2 * k / 4)
        assert np.allclose(h, expected)

    def test_parseval(self):
        model = make_preset("coupling-harsh")
        n = 256
        h_freq = estimate_frequency_response(model, n)
        tap_energy = sum(abs(g) ** 2 for _, g in effective_taps(model))
        assert np.sum(np.abs(h_freq) ** 2) == pytest.approx(tap_energy * n)

    def test_fft_size_too_small(self):
        model = make_preset("coupling-harsh")
        with pytest.raises(ValueError):
            estimate_frequency_response(model, 16)


class TestModelValidation:
    def test_presets_exist(self):
        assert set(CHANNEL_PRESETS) == {"coupling-los", "coupling-mild",
                                        "coupling-harsh"}
        assert make_preset("coupling-harsh").max_delay == 24

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown channel preset"):
            make_preset("coupling-imaginary")

    def test_delays_strictly_increasing(self):
        with pytest.raises(ValueError):
            ChannelModel(taps=(ChannelTap(3, 1.0, 0), ChannelTap(3, 0.5, 1)))

    def test_single_los_tap(self):
        with pytest.raises(ValueError):
            ChannelModel(taps=(ChannelTap(0, 1.0, 0), ChannelTap(1, 1.0, 0)))

    def test_needs_taps(self):
        with pytest.raises(ValueError):
            ChannelModel(taps=())

    def test_antenna_validation(self):
        with pytest.raises(ValueError):
            AntennaPattern(mainlobe_gain=4.0, sidelobe_gain=4.0)
        with pytest.raises(ValueError):
            AntennaPattern(crosspol_rejection=-1.0)
