import numpy as np
import pytest

from linksim.baseband.framing import FrameConfig, build_preamble
from linksim.baseband.sync import (DEFAULT_SYNC_THRESHOLD, SyncState,
                                   acquire_sync, track_phase, wrap_phase)


def embed(preamble, offset, total=600):
    wave = np.zeros(total, dtype=complex)
    wave[offset: offset + len(preamble)] = preamble
    return wave


class TestAcquire:
    def test_clean_offset(self):
        p = build_preamble()
        wave = embed(p, 37)
        state = acquire_sync(wave[None, :], p, p, len(wave) - len(p))
        assert state.timing_offset[0] == 37
        assert abs(state.cfo_estimate[0]) < 1e-9
        assert abs(state.phase[0]) < 1e-9

    def test_cfo_and_phase_recovered(self):
        p = build_preamble()
        n = np.arange(len(p))
        wave = embed(p * np.exp(1j * (0.004 * n + 0.9)), 12)
        state = acquire_sync(wave[None, :], p, p, len(wave) - len(p))
        assert state.timing_offset[0] == 12
        assert state.cfo_estimate[0] == pytest.approx(0.004, abs=1e-6)
        # phase reference is the preamble start after CFO removal
        assert wrap_phase(state.phase[0] - 0.9) == pytest.approx(0.0, abs=1e-6)

    def test_cfo_accuracy_at_20db(self):
        # 95th percentile error within 2e-4 rad/sample at 20 dB, using the
        # full known header (preamble + pilot block) for refinement
        cfg = FrameConfig()
        header = cfg.header
        p = build_preamble()
        rng = np.random.default_rng(1234)
        sigma = np.sqrt(10 ** (-20 / 10) / 2)
        errors = []
        for _ in range(400):
            n = np.arange(len(header))
            clean = header * np.exp(1j * (0.01 * n + 0.3))
            noisy = clean + sigma * (rng.standard_normal(len(header)) +
                                     1j * rng.standard_normal(len(header)))
            state = acquire_sync(noisy[None, :], p, header, 0)
            errors.append(abs(state.cfo_estimate[0] - 0.01))
        assert np.percentile(errors, 95) < 2e-4

    def test_pure_noise_fails(self):
        p = build_preamble()
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        state = acquire_sync(noise[None, :], p, p, len(noise) - len(p))
        assert state.timing_offset[0] == -1

    def test_too_short_waveform(self):
        # the header must fit at every candidate offset
        p = build_preamble()
        with pytest.raises(ValueError, match="does not fit"):
            acquire_sync(np.zeros((1, 16), complex), p, p, 0)

    def test_one_waveform_is_a_caller_error(self):
        # a lone waveform is a group of one, a (1, samples) matrix
        p = build_preamble()
        with pytest.raises(ValueError, match="matrix"):
            acquire_sync(embed(p, 9), p, p, 20)

    def test_search_window_limits_offsets(self):
        p = build_preamble()
        wave = embed(p, 200)
        assert acquire_sync(wave[None, :], p, p, 50).timing_offset[0] == -1

    @pytest.mark.parametrize("window", [0, 8, None])
    def test_window_matches_full_metric_cut_to_it(self, window):
        # the search reads only the window's samples, yet finds the offset
        # that the metric over the whole waveform, cut to the window, peaks
        # at; CFO and phase are then those of a one-offset search there
        cfg = FrameConfig()
        p, header = cfg.preamble, cfg.header
        rng = np.random.default_rng(11)
        for _ in range(20):
            total = len(header) + int(rng.integers(0, 40))
            wave = 0.5 * (rng.standard_normal(total) +
                          1j * rng.standard_normal(total))
            at = int(rng.integers(0, total - len(header) + 1))
            n = np.arange(len(header))
            wave[at: at + len(header)] += header * np.exp(1j * (0.003 * n + 1.1))
            last = total - len(header)
            w = last if window is None else min(window, last)
            corr = np.abs(np.correlate(wave, p, mode="valid"))
            energy = np.convolve(np.abs(wave) ** 2, np.ones(len(p)), mode="valid")
            metric = corr / np.sqrt(energy * np.sum(np.abs(p) ** 2))
            offset = int(np.argmax(metric[: w + 1]))
            there = acquire_sync(wave[None, offset:], p, header, 0, threshold=0.0)
            here = acquire_sync(wave[None, :], p, header, w, threshold=0.0)
            assert here.timing_offset[0] == offset
            assert (here.cfo_estimate[0], here.phase[0]) == (
                there.cfo_estimate[0], there.phase[0])


def one_frame_sync(rx, p, ref, window):
    """The estimator for one waveform, written out step by step with numpy
    scalars; returns (offset, cfo, phase, peak)."""
    head = rx[: window + len(p)]
    corr = np.correlate(head, p, mode="valid")
    energy = np.convolve(np.abs(head) ** 2, np.ones(len(p)), mode="valid")
    norm = np.sqrt(energy * np.sum(np.abs(p) ** 2))
    metric = np.abs(corr) / np.maximum(norm, 1e-300)
    offset = int(np.argmax(metric))
    half = len(p) // 2
    halves = np.sum(rx[offset + half: offset + 2 * half] *
                    np.conj(rx[offset: offset + half]))
    cfo = float(np.angle(halves)) / half
    segment = rx[offset: offset + len(ref)]
    n = np.arange(len(ref))
    z = segment * np.conj(ref) * np.exp(-1j * cfo * n)
    h2 = len(ref) // 2
    cfo += float(np.angle(np.sum(z[h2:]) * np.conj(np.sum(z[:h2])))) / (len(ref) - h2)
    phase = float(np.angle(np.sum(segment * np.conj(ref) * np.exp(-1j * cfo * n))))
    return offset, cfo, wrap_phase(phase), float(metric[offset])


class TestGroup:
    def test_each_row_gets_the_one_frame_estimate_bit_for_bit(self):
        # rows with their own offsets in one window, CFOs and SNRs, some of
        # them too noisy to lock; a locked row's CFO and phase are those of
        # the step-by-step estimator, a missed row is marked -1
        cfg = FrameConfig()
        p, header = cfg.preamble, cfg.header
        rng = np.random.default_rng(21)
        frames, window = 12, 29
        total = len(header) + 40
        rx = np.empty((frames, total), dtype=complex)
        for r in range(frames):
            sigma = (0.05, 0.5, 3.0)[r % 3]
            rx[r] = sigma * (rng.standard_normal(total) +
                             1j * rng.standard_normal(total))
            at = int(rng.integers(0, window + 1))
            n = np.arange(len(header))
            rx[r, at: at + len(header)] += header * np.exp(
                1j * (rng.uniform(-0.01, 0.01) * n + rng.uniform(-3, 3)))
        group = acquire_sync(rx, p, header, window)
        locked = 0
        for r in range(frames):
            offset, cfo, phase, peak = one_frame_sync(rx[r], p, header, window)
            if peak < DEFAULT_SYNC_THRESHOLD:
                assert group.timing_offset[r] == -1
                continue
            locked += 1
            assert group.timing_offset[r] == offset
            assert group.cfo_estimate[r].view(np.uint64) == np.float64(cfo).view(np.uint64)
            assert group.phase[r].view(np.uint64) == np.float64(phase).view(np.uint64)
        assert 0 < locked < frames


class TestTrackPhase:
    def test_removes_rotation(self):
        rng = np.random.default_rng(2)
        block = (1.0 - 2.0 * rng.integers(0, 2, 256)).astype(complex)
        positions = np.arange(0, 256, 32)
        pilots = block[positions].copy()
        corrected = track_phase(block * np.exp(1j * 0.2), pilots, positions)
        residual = np.angle(np.sum(corrected * np.conj(block)))
        assert abs(residual) < 1e-6

    def test_zero_rotation_unchanged(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        positions = np.array([0, 16, 32, 48])
        out = track_phase(block, block[positions], positions)
        assert np.allclose(out, block)

    def test_pilots_resolve_quadrant(self):
        # a blind QPSK estimator is ambiguous mod pi/2; pilots are not
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 128)
        block = ((1 - 2.0 * bits[0::2]) + 1j * (1 - 2.0 * bits[1::2])) / np.sqrt(2)
        positions = np.arange(0, 64, 8)
        pilots = block[positions].copy()
        rotated = block * np.exp(1j * (np.pi / 2 + 0.1))
        corrected = track_phase(rotated, pilots, positions)
        assert np.max(np.abs(corrected - block)) < 1e-9

    def test_block_matrix_matches_per_row_calls(self):
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        positions = np.arange(0, 64, 8)
        pilots = np.exp(1j * rng.uniform(-np.pi, np.pi, len(positions)))
        rows = [track_phase(row, pilots, positions) for row in blocks]
        assert np.array_equal(track_phase(blocks, pilots, positions), rows)

    def test_no_pilots_rejected(self):
        with pytest.raises(ValueError):
            track_phase(np.ones(8, complex), np.array([]), np.array([], dtype=int))


class TestSyncState:
    def test_phase_wrap_enforced(self):
        with pytest.raises(ValueError):
            SyncState(timing_offset=np.zeros(2, dtype=np.int64),
                      cfo_estimate=np.zeros(2), phase=np.array([0.0, 4.0]))

    def test_wrap_phase(self):
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)
        assert wrap_phase(2 * np.pi + 0.1) == pytest.approx(0.1)
