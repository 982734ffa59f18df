import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.errors import (AmbiguousVelocityError, MeasurementError,
                            NoTargetError)
from linksim.ranging import (SPEED_OF_LIGHT, EchoScene, TwrExchange,
                             _correlation, _matched_filter, _strongest_echo,
                             doppler_velocity, echo_range, generate_echo,
                             resolve_echoes, simulate_twr_exchange, twr_range)


def qpsk_waveform(n, seed, oversample=1):
    rng = np.random.default_rng(seed)
    chips = (rng.integers(0, 2, -(-n // oversample)) * 2 - 1 +
             1j * (rng.integers(0, 2, -(-n // oversample)) * 2 - 1)) / np.sqrt(2)
    return np.repeat(chips, oversample)[:n]


class TestTwr:
    def test_twenty_nanoseconds(self):
        x = TwrExchange(t1=0.0, t2=5.0, t3=5.0, t4=20e-9)
        assert twr_range(x) == pytest.approx(2.99792458, rel=1e-9)

    def test_zero_distance_loopback(self):
        x = TwrExchange(t1=0.0, t2=1.0, t3=1.5, t4=0.5)
        assert twr_range(x) == 0.0

    def test_offset_cancellation_exact(self):
        # dyadic timestamps keep the float arithmetic exact
        base = TwrExchange(t1=0.25, t2=0.5, t3=0.75, t4=1.0)
        offset = 2.0 ** -10
        shifted = TwrExchange(t1=0.25, t2=0.5 + offset, t3=0.75 + offset, t4=1.0)
        assert twr_range(base) == twr_range(shifted)

    def test_offset_invariance_random(self):
        # algebraically exact; floats leave ulp(offset)-level residue only
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = simulate_twr_exchange(float(rng.uniform(0.2, 5.0)),
                                      reply_time=float(rng.uniform(1e-7, 1e-5)))
            shifted = TwrExchange(x.t1, x.t2 + 1e-3, x.t3 + 1e-3, x.t4)
            assert twr_range(shifted) == pytest.approx(twr_range(x), abs=1e-9)

    def test_drift_error_matches_algebraic_expansion(self):
        true_range, reply, drift_ppm = 2.5, 1e-6, 10.0
        x = simulate_twr_exchange(true_range, reply_time=reply,
                                  clock_drift_ppm=drift_ppm)
        drift = drift_ppm * 1e-6
        expected_error = -SPEED_OF_LIGHT * drift * (x.t3 - x.t2) / (2 * (1 + drift))
        measured_error = twr_range(x) - true_range
        assert measured_error == pytest.approx(expected_error, rel=1e-9)

    def test_negative_tof_rejected(self):
        x = TwrExchange(t1=0.0, t2=0.0, t3=1.0, t4=0.5)
        with pytest.raises(MeasurementError):
            twr_range(x)

    def test_timestamp_ordering_enforced(self):
        with pytest.raises(ValueError):
            TwrExchange(t1=1.0, t2=0.0, t3=0.0, t4=0.5)
        with pytest.raises(ValueError):
            TwrExchange(t1=0.0, t2=1.0, t3=0.5, t4=2.0)


class TestGenerateEcho:
    def test_pure_delay_copy(self):
        scene = EchoScene(true_range=SPEED_OF_LIGHT * 10 / (2 * 1e9),
                          sample_rate=1e9, bandwidth=500e6,
                          reflection_gain_db=-6.0)
        tx = qpsk_waveform(256, 1)
        rx = generate_echo(tx, scene)
        amp = 10 ** (-6 / 20)
        assert np.allclose(rx[10:], amp * tx[:-10])
        assert np.allclose(rx[:10], 0.0)

    def test_zero_velocity_no_block_rotation(self):
        scene = EchoScene(true_range=0.6, sample_rate=1e9, bandwidth=500e6,
                          block_len=16)
        tx = qpsk_waveform(128, 2)
        rx = generate_echo(tx, scene)
        d = scene.round_trip_samples
        assert np.allclose(rx[d:], tx[:-d])

    def test_velocity_rotates_blocks(self):
        scene = EchoScene(true_range=0.6, sample_rate=1e9, bandwidth=500e6,
                          relative_velocity=25.0, block_len=16)
        tx = qpsk_waveform(160, 3)
        rx = generate_echo(tx, scene)
        d = scene.round_trip_samples
        t_block = scene.block_len / scene.sample_rate
        dphi = 4 * np.pi * 25.0 * t_block / scene.carrier_wavelength
        # samples within one block share a phase; adjacent blocks differ by dphi
        ratio = rx[d:] / tx[:-d]
        block_idx = (np.arange(len(tx)) // 16)[d:]
        assert np.allclose(np.angle(ratio * np.exp(-1j * dphi * block_idx)),
                           0.0, atol=1e-9)

    def test_delay_beyond_waveform_rejected(self):
        scene = EchoScene(true_range=100.0, sample_rate=1e9, bandwidth=500e6)
        with pytest.raises(ValueError, match="delay"):
            generate_echo(qpsk_waveform(64, 4), scene)

    @pytest.mark.parametrize("scene", [
        EchoScene(true_range=3.0, sample_rate=1e9, bandwidth=5e8,
                  residual_si_power_db=20.0, echo_snr_db=20.0,
                  reflection_gain_db=-10.0),
        EchoScene(true_range=0.6, sample_rate=1e9, bandwidth=5e8,
                  relative_velocity=25.0, block_len=16, echo_snr_db=-3.0),
        # a silent echo: zero noise power, so every noise sample is a zero
        EchoScene(true_range=0.6, sample_rate=1e9, bandwidth=5e8,
                  reflection_gain_db=-8000.0, echo_snr_db=10.0),
    ])
    @pytest.mark.parametrize("seed", [0, 99, 2 ** 64 - 1])
    def test_noise_is_the_complex_form_bit_for_bit(self, scene, seed):
        tx = qpsk_waveform(1000, seed % 7)
        got = generate_echo(tx, scene, seed=seed)
        noiseless = generate_echo(tx, EchoScene(**{
            **scene.__dict__, "echo_snr_db": None}))
        rng = np.random.default_rng(seed)
        echo_amp = 10.0 ** (scene.reflection_gain_db / 20.0)
        sigma2 = (np.mean(np.abs(tx) ** 2) * echo_amp ** 2
                  / 10.0 ** (scene.echo_snr_db / 10.0))
        noise = rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))
        expected = noiseless + noise * math.sqrt(sigma2 / 2.0)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            EchoScene(true_range=0.0, sample_rate=1e9, bandwidth=500e6)
        with pytest.raises(ValueError):
            EchoScene(true_range=1.0, sample_rate=1e8, bandwidth=5e8)


class TestEchoRange:
    def test_ten_sample_round_trip(self):
        scene = EchoScene(true_range=SPEED_OF_LIGHT * 10 / (2 * 1e9),
                          sample_rate=1e9, bandwidth=500e6)
        tx = qpsk_waveform(4096, 5)
        est = echo_range(tx, generate_echo(tx, scene), 1e9)
        assert est.range == pytest.approx(1.49896229, rel=1e-9)
        assert est.peak_quality > 0.9

    def test_quantization_bound_over_random_ranges(self):
        fs = 1e9
        bound = SPEED_OF_LIGHT / (2 * fs)
        rng = np.random.default_rng(6)
        tx = qpsk_waveform(8192, 7)
        for _ in range(20):
            true_range = float(rng.uniform(0.5, 100.0))
            scene = EchoScene(true_range=true_range, sample_rate=fs,
                              bandwidth=500e6)
            est = echo_range(tx, generate_echo(tx, scene), fs)
            assert abs(est.range - true_range) <= bound

    def test_si_cancellation_recovers_weak_echo(self):
        # self-interference 20 dB above the echo still yields the right peak
        scene = EchoScene(true_range=6.0, sample_rate=1e9, bandwidth=500e6,
                          reflection_gain_db=-20.0, residual_si_power_db=20.0,
                          echo_snr_db=20.0)
        tx = qpsk_waveform(8192, 8)
        rx = generate_echo(tx, scene, seed=99)
        est = echo_range(tx, rx, 1e9)
        assert abs(est.range - 6.0) <= SPEED_OF_LIGHT / (2 * 1e9)

    def test_si_monotonicity(self):
        # error never decreases as residual SI grows, fixed seed and scene
        tx = qpsk_waveform(8192, 9)
        errors = []
        for si_db in (-20.0, 0.0, 20.0, 40.0, 60.0):
            scene = EchoScene(true_range=6.0, sample_rate=1e9, bandwidth=500e6,
                              reflection_gain_db=-20.0,
                              residual_si_power_db=si_db, echo_snr_db=15.0)
            rx = generate_echo(tx, scene, seed=1234)
            try:
                est = echo_range(tx, rx, 1e9)
                errors.append(abs(est.range - 6.0))
            except NoTargetError:
                errors.append(float("inf"))
        assert all(a <= b for a, b in zip(errors, errors[1:]))

    def test_no_target_below_threshold(self):
        rng = np.random.default_rng(10)
        tx = qpsk_waveform(1024, 11)
        noise = (rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        with pytest.raises(NoTargetError):
            echo_range(tx, noise, 1e9, cancel_si=False)

    def test_two_target_resolution_at_bandwidth_limit(self):
        # separation of c/(2B) = 0.2998 m at B = 500 MHz, critically sampled
        fs = 500e6
        separation = SPEED_OF_LIGHT / (2 * 500e6)
        tx = qpsk_waveform(16384, 12)
        s1 = EchoScene(true_range=3.0, sample_rate=fs, bandwidth=500e6)
        s2 = EchoScene(true_range=3.0 + separation, sample_rate=fs,
                       bandwidth=500e6)
        rx = generate_echo(tx, s1) + generate_echo(tx, s2)
        estimates = resolve_echoes(tx, rx, fs, n_targets=2)
        d1 = s1.round_trip_samples
        expected = [SPEED_OF_LIGHT * d1 / (2 * fs),
                    SPEED_OF_LIGHT * (d1 + 1) / (2 * fs)]
        assert [e.range for e in estimates] == pytest.approx(expected)

    @pytest.mark.parametrize("estimator", [echo_range, resolve_echoes])
    def test_length_mismatch(self, estimator):
        with pytest.raises(ValueError, match="equal lengths"):
            estimator(np.ones(8, complex), np.ones(9, complex), 1e9)

    @pytest.mark.parametrize("estimator", [echo_range, resolve_echoes])
    @pytest.mark.parametrize("cancel_si", [True, False])
    def test_zero_energy_transmit_is_rejected_on_entry(self, estimator,
                                                       cancel_si):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero energy"):
                estimator(np.zeros(8), np.ones(8), 1e9, cancel_si=cancel_si)


def direct_correlation(tx, work):
    """Reference correlator: the direct form, O(N^2), at delays 0 .. N-1."""
    return np.correlate(work, tx, mode="full")[len(tx) - 1:]


@st.composite
def echo_pairs(draw, max_len=4096):
    """(tx, work) of one random length: complex Gaussian tx, and work an
    echo of it at a random delay and gain (possibly zero) plus noise."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 255, 1023, 1024, max_len]),
                       st.integers(1, max_len)))
    delay = draw(st.integers(0, n - 1))
    gain = draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    work = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    work[delay:] += gain * tx[: n - delay]
    return tx, work


class TestMatchedFilter:
    @settings(max_examples=60, deadline=None)
    @given(echo_pairs())
    @example((np.array([1 + 2j]), np.array([3 - 1j])))
    @example((np.array([1j, 2.0]), np.array([0.5, -1j])))
    def test_fft_correlation_matches_direct_form(self, pair):
        tx, work = pair
        n = len(tx)
        matched = _matched_filter(tx)
        # the next power of two at or above 2N - 1
        assert 2 * n - 1 <= len(matched) < 4 * n - 2
        assert len(matched) & (len(matched) - 1) == 0
        reference = direct_correlation(tx, work)
        tol = 1e-9 * np.linalg.norm(tx) * np.linalg.norm(work)
        assert np.all(np.abs(_correlation(matched, work) - reference) <= tol)
        mags = np.sort(np.abs(reference))
        if n == 1 or mags[-1] - mags[-2] > tol:
            d, _, _ = _strongest_echo(tx, matched, work, 1e9)
            assert d == int(np.argmax(np.abs(reference)))

    def test_no_direct_form_correlation(self, monkeypatch):
        # O(N^2) at 8192 samples would dominate every ranging trial
        def forbidden(*args, **kwargs):
            raise AssertionError("np.correlate called")

        ffts = []
        fft = np.fft.fft

        def counting_fft(*args, **kwargs):
            ffts.append(args)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np, "correlate", forbidden)
        monkeypatch.setattr(np.fft, "fft", counting_fft)
        scene = EchoScene(true_range=6.0, sample_rate=1e9, bandwidth=500e6,
                          reflection_gain_db=-20.0, residual_si_power_db=20.0,
                          echo_snr_db=20.0)
        tx = qpsk_waveform(8192, 14)
        rx = generate_echo(tx, scene, seed=3)
        assert abs(echo_range(tx, rx, 1e9).range - 6.0) <= SPEED_OF_LIGHT / 2e9
        assert len(ffts) == 2
        # one transmit spectrum serves every cancellation pass
        ffts.clear()
        resolve_echoes(tx, rx, 1e9, n_targets=3)
        assert len(ffts) == 4


class TestDopplerVelocity:
    def test_zero_progression(self):
        assert doppler_velocity(np.zeros(16), 1e-6, 0.05) == 0.0

    def test_hand_computed_slope(self):
        phases = 0.01 * np.arange(32)
        v = doppler_velocity(phases, 1e-6, 0.05)
        assert v == pytest.approx(0.05 * 0.01 / (4 * np.pi * 1e-6), rel=1e-9)
        assert v == pytest.approx(39.7887, rel=1e-4)

    def test_round_trip_with_echo_generator(self):
        scene = EchoScene(true_range=3.0, sample_rate=1e9, bandwidth=500e6,
                          relative_velocity=12.0, block_len=64)
        tx = qpsk_waveform(64 * 40, 13)
        rx = generate_echo(tx, scene)
        d = scene.round_trip_samples
        ratio = rx[d:] / tx[:-d]
        blocks = ratio[: (len(ratio) // 64) * 64].reshape(-1, 64)
        phases = np.angle(blocks.mean(axis=1))
        v = doppler_velocity(phases, 64 / 1e9, scene.carrier_wavelength)
        assert v == pytest.approx(12.0, rel=1e-6)

    def test_pi_step_is_ambiguous(self):
        with pytest.raises(AmbiguousVelocityError):
            doppler_velocity(np.pi * np.arange(8), 1e-6, 0.05)

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            doppler_velocity(np.array([0.1]), 1e-6, 0.05)
