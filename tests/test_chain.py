import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksim.baseband import (ChainConfig, ChannelKnowledge, CodecConfig,
                              EqualizerConfig, EqualizerVariant,
                              ModulationScheme, SpreadingConfig, decode_frames,
                              rx_front_end, tx_chain, wrap_phase)
from linksim.baseband.framing import FrameConfig
from linksim.channel import (ChannelModel, ChannelTap, apply_channel,
                             estimate_frequency_response, make_preset)
from linksim.errors import CapacityError

IDENTITY = ChannelKnowledge(freq_response=np.ones(256), noise_variance=0.0)


def payload(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


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


    def test_each_row_is_searched_only_where_it_fits_whole(self):
        # the first row holds a frame 16 samples in, cut 6 samples short, so
        # its own window (0..10) misses it, beside a row 24 samples longer
        cfg = ChainConfig.for_payload(300, codec=None)
        frame = tx_chain(payload(300, 3), cfg)
        late = np.concatenate([np.zeros(16, complex), frame])[: len(frame) + 10]
        longer = np.concatenate([frame, np.zeros(24, complex)])
        soft, _, received = rx_front_end([late, longer], cfg, [IDENTITY] * 2)
        assert received.tolist() == [False, True]
        assert rx_front_end([late], cfg, [IDENTITY])[1].timing_offset.tolist() == [-1]
        assert np.array_equal(soft, rx_front_end([longer], cfg, [IDENTITY])[0])

    def test_a_row_shorter_than_a_frame_is_a_caller_error(self):
        cfg = ChainConfig.for_payload(300, codec=None)
        frame = tx_chain(payload(300, 5), cfg)
        with pytest.raises(ValueError, match="does not fit"):
            rx_front_end([np.concatenate([frame, np.zeros(30, complex)]),
                          frame[:-1]], cfg, [IDENTITY] * 2)


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
            waveform = apply_channel(tx_chain(payload(2500, seed), cfg), model, seed)
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
        rxw = apply_channel(tx_chain(bits, cfg), model)
        knowledge = ChannelKnowledge(estimate_frequency_response(model, 256), 0.0)
        (info, failed, _), _ = receive(rxw, cfg, knowledge)
        assert np.array_equal(info, bits)
        assert failed == 0

    def test_pilot_ls_estimator_matches_genie(self):
        cfg = ChainConfig.for_payload(992, channel_estimator="pilot-ls")
        model = make_preset("coupling-mild")
        bits = payload(992, 4)
        (info, failed, _), _ = receive(apply_channel(tx_chain(bits, cfg), model),
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
        (info, _, _), _ = receive(apply_channel(tx_chain(bits, cfg), model), cfg)
        assert np.array_equal(info, bits)

    def test_cfo_phase_and_noise(self):
        cfg = ChainConfig.for_payload(992)
        model = make_preset("coupling-los", cfo=0.008, phase_offset=-1.2,
                            snr_db=15.0)
        bits = payload(992, 6)
        knowledge = ChannelKnowledge(estimate_frequency_response(model, 256),
                                     10 ** (-1.5))
        (info, failed, _), sync = receive(
            apply_channel(tx_chain(bits, cfg), model, 77), cfg, knowledge)
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
            waveform = apply_channel(tx_chain(payload(300, seed), cfg), model, seed)
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
            waveform = apply_channel(tx_chain(payload(300, seed), cfg), model, seed)
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
        waveforms = np.array(apply_channel(
            frames, [replace(model, snr_db=snr) for _, snr, _ in rows],
            [seed for seed, _, _ in rows]))
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
            apply_channel(tx_chain(bits, cfg), model, 11), cfg, knowledge)
        # raw channel BER at 4 dB per-sample SNR is ~1.25e-2
        assert 0.002 < channel_errors / cfg.coded_bits_total() < 0.04
        assert np.array_equal(info, bits) and failed == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig.for_payload(0, codec=None)
        with pytest.raises(ValueError):
            ChainConfig.for_payload(16, codec=None, channel_estimator="magic")

    @pytest.mark.parametrize("scheme", [ModulationScheme.BPSK,
                                        ModulationScheme.QPSK])
    def test_tx_waveform_papr_is_zero_db(self, scheme):
        # every frame sample (preamble, pilots, payload, filler) is
        # unit-modulus, so the single-carrier waveform has 0 dB PAPR
        from linksim.baseband.modulation import papr_db
        cfg = ChainConfig.for_payload(500, codec=None, modulation=scheme)
        waveform = tx_chain(payload(500, 20), cfg)
        assert papr_db(waveform) == pytest.approx(0.0, abs=1e-12)
