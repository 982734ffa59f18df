import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.channel import (AntennaPattern, ChannelModel, ChannelTap,
                             CHANNEL_PRESETS, apply_channel, effective_taps,
                             estimate_frequency_response, impulse_response,
                             make_preset, _scale)


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


def los_model(**kwargs):
    return ChannelModel(taps=(ChannelTap(0, 1.0, 0),), **kwargs)


def one_frame(tx, model, seed=0):
    """``tx`` through ``model`` with noise seed ``seed`` as a group of one;
    returns its row."""
    return apply_channel(np.asarray(tx)[None], [model], [seed])[0]


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
        assert np.allclose(one_frame(tx, los_model()), tx)

    def test_pure_delay(self):
        model = ChannelModel(taps=(ChannelTap(5, 1.0, 0),))
        tx = np.arange(1, 21, dtype=complex)
        rx = one_frame(tx, model)
        assert len(rx) == len(tx) + 5
        assert np.allclose(rx[5:], tx)
        assert np.allclose(rx[:5], 0.0)

    def test_output_length(self):
        model = make_preset("coupling-harsh")
        rx = one_frame(np.ones(100, complex), model)
        assert len(rx) == 100 + 24

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.empty((1, 0), complex), [los_model()], [0])

    def test_a_lone_waveform_is_a_caller_error(self):
        with pytest.raises(ValueError, match="group of frames"):
            apply_channel(np.ones(10, complex), [los_model()], [0])

    def test_bpsk_slicer_error_rate_matches_q(self):
        # per-sample SNR of 6 dB: hard-slicer error rate Q(sqrt(2*10^0.6))
        n = 400_000
        rng = np.random.default_rng(1)
        tx = (1.0 - 2.0 * rng.integers(0, 2, n)).astype(complex)
        rx = one_frame(tx, los_model(snr_db=6.0), 42)
        errors = np.count_nonzero((rx.real < 0) != (tx.real < 0))
        p = q_function(math.sqrt(2 * 10 ** 0.6))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(errors / n - p) < 3 * sigma

    def test_determinism(self):
        model = make_preset("coupling-mild", snr_db=10.0, cfo=0.003)
        tx = np.exp(1j * np.linspace(0, 5, 300))
        a = one_frame(tx, model, 7)
        b = one_frame(tx.copy(), model, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, one_frame(tx, model, 8))

    def test_noiseless_linearity(self):
        model = make_preset("coupling-harsh", cfo=0.002, phase_offset=0.4)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        lhs = one_frame(2.0 * x + 0.5j * y, model)
        rhs = 2.0 * one_frame(x, model) + 0.5j * one_frame(y, model)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_crosspol_monotonicity(self):
        taps = make_preset("coupling-harsh").taps
        rng = np.random.default_rng(3)
        tx = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        powers = []
        for rejection in (0.0, 5.0, 10.0, 20.0, 40.0):
            ant = AntennaPattern(crosspol_rejection=rejection)
            model = ChannelModel(taps=taps, antenna=ant)
            powers.append(np.sum(np.abs(one_frame(tx, model)) ** 2))
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_crosspol_leaves_los_only_unchanged(self):
        tx = np.ones(50, complex)
        low = ChannelModel(taps=(ChannelTap(0, 1.0, 0),),
                           antenna=AntennaPattern(crosspol_rejection=0.0))
        high = ChannelModel(taps=(ChannelTap(0, 1.0, 0),),
                            antenna=AntennaPattern(crosspol_rejection=40.0))
        assert np.array_equal(one_frame(tx, low), one_frame(tx, high))

    def test_noise_variance_calibration(self):
        # empirical noise variance over 1e6 samples within 1% of configured
        n = 1_000_000
        tx = np.ones(n, dtype=complex)
        model = los_model(snr_db=10.0)
        noise = one_frame(tx, model, 5) - tx
        measured = np.mean(np.abs(noise) ** 2)
        assert measured == pytest.approx(10 ** (-1.0), rel=0.01)

    def test_randomized_tap_phases_keep_los(self):
        model = make_preset("coupling-mild", randomize_tap_phases=True)
        tx = np.ones(100, complex)
        a = one_frame(tx, model, 9)
        b = one_frame(tx, model, 9)
        assert np.array_equal(a, b)   # same seed, same draw
        c = one_frame(tx, make_preset("coupling-mild"), 9)
        assert not np.allclose(a, c)  # reflected phases differ from preset


def reference_channel(tx, model, seed):
    """One frame through the channel as the per-row implementation computed
    it before the group form: ``np.convolve`` for every response, the noise
    power of the row alone, and complex noise built and scaled out of place.
    The group channel must match it bit for bit."""
    tx = np.asarray(tx, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    rx = np.convolve(tx, impulse_response(model, rng))
    if model.cfo != 0.0 or model.phase_offset != 0.0:
        n = np.arange(len(rx))
        rx *= np.exp(1j * (model.cfo * n + model.phase_offset))
    if model.snr_db is not None:
        power = np.mean(np.abs(rx) ** 2)
        sigma2 = power / 10.0 ** (model.snr_db / 10.0)
        noise = rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx))
        noise *= math.sqrt(sigma2 / 2.0)
        rx += noise
    return rx


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# gains and samples with signed zeros, unit and huge magnitudes: a huge
# sample times a huge gain overflows to inf, and inf - inf gives NaN
SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e200, -1e200)
parts = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-1e3, 1e3, allow_subnormal=False))
one_tap = st.builds(
    lambda re, im, bounces: ChannelModel(taps=(ChannelTap(0, complex(re, im),
                                                          bounces),)),
    parts, parts, st.integers(0, 3))
channels = st.builds(
    lambda base, snr_db, cfo, phase, randomize: ChannelModel(
        taps=base.taps, snr_db=snr_db, cfo=cfo, phase_offset=phase,
        randomize_tap_phases=randomize),
    st.one_of(st.sampled_from(CHANNEL_PRESETS).map(make_preset), one_tap),
    st.one_of(st.none(), st.floats(-10.0, 40.0)),
    st.sampled_from((0.0, 0.003, -0.01)), st.sampled_from((0.0, 0.4, -2.0)),
    st.booleans())


@st.composite
def groups(draw):
    """(tx, models, seeds, rows): 1-40 frames over a pool of 1-4 models of
    one delay spread, so frames share model objects, with ±0.0 and huge
    values scattered over a random waveform.  ``rows`` is None, one tx row
    a frame, or maps the frames onto 1-40 tx rows with repeats, so frames
    share (row, model) pairs."""
    pool = draw(st.lists(channels, min_size=1, max_size=4))
    pool = [model for model in pool if model.max_delay == pool[0].max_delay]
    frames = draw(st.integers(1, 40))
    sent = draw(st.one_of(st.none(), st.integers(1, 40)))
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = frames if sent is None else sent
    tx = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    for r, k, re, im in draw(st.lists(st.tuples(
            st.integers(0, count - 1), st.integers(0, n - 1), parts, parts),
            max_size=20)):
        tx[r, k] = complex(re, im)
    rows = None if sent is None else draw(st.lists(
        st.integers(0, sent - 1), min_size=frames, max_size=frames))
    models = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(frames)]
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=frames,
                          max_size=frames))
    return tx, models, seeds, rows


# one multi-tap model object, which two frames of an example below share
HARSH = make_preset("coupling-harsh", snr_db=3.0, cfo=0.002, phase_offset=0.4)


class TestGroup:
    """A ``(frames, samples)`` group through the channel, one model and one
    seed a frame, gives every frame what the per-row reference gives its
    row of ``tx``; frames that send one row through one model share its
    noiseless work and still draw their own noise."""

    @settings(max_examples=150, deadline=None)
    @given(group=groups())
    # signed zeros and overflow to NaN, sent by three frames through one
    # one-tap model
    @example(group=(np.array([[0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                               complex(-0.0, -0.0), 1e200 + 1e200j, 1 - 1j]]),
                    [ChannelModel(taps=(ChannelTap(0, complex(-0.0, 1e200)),))] * 3,
                    [0, 1, 2], [0, 0, 0]))
    # a row whose power overflows, so the noise scale is not finite and the
    # noise makes NaNs, signed as the complex product signs them; the model
    # draws tap phases, so its two frames share nothing
    @example(group=(np.array([[1e200j, complex(-0.13210486, 0.104900117)]]),
                    [ChannelModel(taps=(ChannelTap(0, 1e200j, 1),), snr_db=0.0,
                                  cfo=0.003, randomize_tap_phases=True)] * 2,
                    [0, 1], [0, 0]))
    # a silent row: zero power, so every noise sample is a signed zero;
    # two frames share it, a third sends the other row
    @example(group=(np.array([[0j], [1 + 1j]]),
                    [make_preset("coupling-los", snr_db=0.0, phase_offset=-2.0)] * 3,
                    [0, 1, 2], [0, 1, 0]))
    # multi-tap: one pair of two frames beside frames of their own, one
    # with its own tap phases and one with another model
    @example(group=(np.exp(1j * np.arange(60.0)).reshape(2, 30),
                    [HARSH, make_preset("coupling-harsh",
                                        randomize_tap_phases=True), HARSH,
                     make_preset("coupling-harsh", snr_db=-5.0)],
                    [5, 6, 7, 8], [1, 1, 1, 0]))
    def test_each_row_is_the_per_row_reference(self, group):
        tx, models, seeds, rows = group
        sent = tx if rows is None else tx[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            got = apply_channel(tx, models, seeds, rows)
            expected = [reference_channel(row, model, seed)
                        for row, model, seed in zip(sent, models, seeds)]
            alone = apply_channel(sent[:1], models[:1], seeds[:1])[0]
        assert got.shape == (len(sent), tx.shape[1] + models[0].max_delay)
        for row, want in zip(got, expected):
            assert same_bits(row, want)
        assert same_bits(alone, expected[0])

    def test_each_row_draws_tap_phases_then_noise_from_its_own_seed(self):
        rng = np.random.default_rng(4)
        tx = np.exp(2j * np.pi * rng.random((4, 300)))
        models = [make_preset("coupling-harsh", randomize_tap_phases=True,
                              snr_db=snr, cfo=0.002, phase_offset=0.4)
                  for snr in (3.0, 10.0, -5.0, 20.0)]
        seeds = [11, 12, 13, 14]
        rows = apply_channel(tx, models, seeds)
        assert rows.shape == (4, 324)
        for row, frame, model, seed in zip(rows, tx, models, seeds):
            assert same_bits(row, reference_channel(frame, model, seed))
            assert same_bits(row, one_frame(frame, model, seed))

    def test_one_model_and_one_seed_per_row(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones((3, 10), complex), [los_model()] * 2, [0] * 3)
        with pytest.raises(ValueError):
            apply_channel(np.ones((3, 10), complex), [los_model()] * 3, [0] * 2)

    def test_one_tx_row_a_frame_within_tx(self):
        tx, models = np.ones((2, 10), complex), [los_model()] * 3
        # a rows map of the wrong length: its frames are not the models'
        with pytest.raises(ValueError, match="2 frames need one model"):
            apply_channel(tx, models, [0, 1, 2], [0, 1])
        with pytest.raises(ValueError, match="3 frames need one model"):
            apply_channel(tx, models[:2], [0, 1], [0, 1, 1])
        for past in (2, -1):
            with pytest.raises(ValueError, match="index the 2 rows of tx"):
                apply_channel(tx, models, [0, 1, 2], [0, past, 1])

    def test_a_group_shares_one_delay_spread(self):
        models = [make_preset("coupling-harsh"), make_preset("coupling-mild")]
        with pytest.raises(ValueError, match=r"one delay spread, got max delays \[7, 24\]"):
            apply_channel(np.ones((2, 10), complex), models, [0, 1])


class TestRealGainScale:
    """One-tap gains whose imaginary parts are all ±0.0 skip the complex
    product of ``_scale``: each row still has ``np.convolve``'s bits."""

    # signed-zero samples beside ordinary and overflowing ones
    SAMPLES = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                        complex(-0.0, -0.0), 1.5 - 2.25j, -3.0 + 0.5j,
                        -0.0 + 7.0j, 4.0 - 0.0j, 1e200 - 1e200j])
    REALS = (1.0, 0.0, -0.0, -0.7, -2.5e200)

    @pytest.mark.parametrize("imag", [0.0, -0.0], ids=["+0", "-0"])
    def test_each_row_is_np_convolve_bit_for_bit(self, imag):
        gains = np.array([complex(re, imag) for re in self.REALS])
        assert np.array_equal(np.signbit(gains.imag),
                              [math.copysign(1, imag) < 0] * len(gains))
        tx = np.tile(self.SAMPLES, (len(gains), 1))
        out = np.empty_like(tx)
        with np.errstate(over="ignore", invalid="ignore"):
            _scale(tx, gains, out)
            expected = [np.convolve(row, [g]) for row, g in zip(tx, gains)]
        for row, want in zip(out, expected):
            assert same_bits(row, want)


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
