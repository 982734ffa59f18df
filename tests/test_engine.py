"""The streaming trial engine gives every trial the result it gets alone.

``link_trials`` takes a stream of frames a group at a time: the next
frames, at most ``GROUP_FRAMES`` of them, at most ``GROUP_SAMPLES`` samples
and at most ``DECISION_BYTES`` of Viterbi decisions, are drawn, sent,
received, decoded together and recorded before the next group is drawn.
With more CPUs the same holds for a round of groups, one group a process,
so the tests that spy on the calling process's decode calls run on one
CPU (``tests/test_workers.py`` covers the split).
A sweep hands it every trial of every point, and a baseband-backed mux
run all of its packet copies.  Neither the group a trial lands in nor which of its
group's frames are lost may change a result.
"""
import json
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksim.baseband import (ChainConfig, CodecConfig, EqualizerConfig,
                              EqualizerVariant, ModulationScheme,
                              SpreadingConfig)
from linksim.baseband.chain import ChannelKnowledge
from linksim.channel import make_preset
from linksim.cli import main
from linksim.harness import parse_config, sweep, workers
from linksim.harness.seeding import stable_seed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOAD_DIR = Path(__file__).resolve().parent.parent / "bench" / "workloads"
RECEIVER = {"correct_cfo": False, "timing_search": 8}
CHAINS = {
    "coded": ChainConfig.for_payload(
        960, codec=CodecConfig(info_bits_per_codeword=512), **RECEIVER),
    "uncoded": ChainConfig.for_payload(960, codec=None, **RECEIVER),
}


def _zero_taps(model, **overrides):
    """``model``'s tap set, and so its delay spread, with every gain 0j."""
    return replace(model, taps=tuple(replace(tap, gain=0j) for tap in model.taps),
                   **overrides)


def _mixed_trials(cfg):
    """Frames of a stream where some lose sync (-10 dB and the harsh taps
    with every gain zero), some decode with errors and some decode cleanly;
    the genie knowledge alternates between two objects (4 dB and 8 dB)."""
    harsh = make_preset("coupling-harsh")
    channels = [(replace(harsh, snr_db=snr), seed) for seed, snr in
                enumerate((-10.0, 0.0, 2.0, 4.0, -10.0, 8.0, 3.0, 20.0))]
    channels.insert(3, (_zero_taps(harsh, snr_db=10.0), 0))
    rng = np.random.default_rng(5)
    payloads = rng.integers(0, 2, (len(channels), cfg.payload_bits), dtype=np.uint8)
    knowledge = [sweep.genie_knowledge(cfg, replace(harsh, snr_db=snr))
                 for snr in (4.0, 8.0)]
    return [(payload, model, seed, knowledge[f % 2])
            for f, (payload, (model, seed)) in enumerate(zip(payloads, channels))]


@pytest.mark.parametrize("name", CHAINS)
def test_batch_gives_each_trial_its_one_row_result(name):
    cfg = CHAINS[name]
    frames = _mixed_trials(cfg)
    errors, lost = sweep.link_trials(frames, cfg)
    alone = [sweep.link_trials([frame], cfg) for frame in frames]
    assert errors.tolist() == [int(e[0]) for e, _ in alone]
    assert lost.tolist() == [int(p[0]) for _, p in alone]
    # the stream really mixes knowledge objects and outcomes: sync losses
    # (every bit wrong), frames with some bit errors and clean frames
    assert len({id(knowledge) for _, _, _, knowledge in frames}) == 2
    all_wrong = errors == cfg.payload_bits
    assert all_wrong[[0, 3, 5]].all() and lost[[0, 3, 5]].all()
    assert ((errors > 0) & ~all_wrong).any()
    assert (lost == 0).any()


LMS = EqualizerVariant.TIME_DOMAIN_LMS
CODEC = CodecConfig(info_bits_per_codeword=512)
# receivers no benchmark workload runs, each with the base channel of its
# stream: (chain, preset, channel overrides)
RECEIVERS = {
    "pilot-ls": (ChainConfig.for_payload(
        960, codec=CODEC, channel_estimator="pilot-ls", **RECEIVER),
        "coupling-harsh", {}),
    "td-lms": (ChainConfig.for_payload(
        480, codec=None, equalizer=EqualizerConfig(variant=LMS), **RECEIVER),
        "coupling-mild", {}),
    "td-lms-decision-directed": (ChainConfig.for_payload(
        480, codec=None, equalizer=EqualizerConfig(
            variant=LMS, decision_directed=True), **RECEIVER),
        "coupling-mild", {}),
    "cfo-correction": (ChainConfig.for_payload(
        960, codec=CODEC, correct_cfo=True, timing_search=8),
        "coupling-harsh", {"cfo": 0.004, "phase_offset": -2.1}),
    "qpsk": (ChainConfig.for_payload(
        960, codec=CODEC, modulation=ModulationScheme.QPSK, **RECEIVER),
        "coupling-harsh", {}),
    "sf4": (ChainConfig.for_payload(
        480, codec=None, spreading=SpreadingConfig(4), **RECEIVER),
        "coupling-harsh", {}),
}


def _stream(cfg, models, seeds):
    """Frames on ``models`` with seeded payloads, the noise seeds ``seeds``
    and the genie knowledge of each frame's own model."""
    rng = np.random.default_rng(6)
    return [(rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8), model, seed,
             sweep.genie_knowledge(cfg, model))
            for model, seed in zip(models, seeds, strict=True)]


def _each_frame_alone(frames, cfg):
    errors, lost = sweep.link_trials(frames, cfg)
    alone = [sweep.link_trials([frame], cfg) for frame in frames]
    assert errors.tolist() == [int(e[0]) for e, _ in alone]
    assert lost.tolist() == [int(p[0]) for _, p in alone]
    return errors, lost


@pytest.mark.parametrize("name", RECEIVERS)
def test_every_receiver_gives_each_trial_its_one_row_result(name):
    cfg, preset, overrides = RECEIVERS[name]
    base = make_preset(preset, **overrides)
    models = [replace(base, snr_db=snr)
              for snr in (-10.0, 0.0, 3.0, 6.0, 20.0, -10.0, 2.0, 9.0)]
    errors, lost = _each_frame_alone(_stream(cfg, models, range(8)), cfg)
    # the frames at -10 dB are lost, and others are received
    assert errors[[0, 5]].tolist() == [cfg.payload_bits] * 2
    assert lost[[0, 5]].all() and (errors < cfg.payload_bits).any()


def test_a_group_searched_at_every_offset_where_its_frames_fit():
    # with no timing_search, a frame is searched for at every offset where
    # it fits: 0..24 on the harsh channel's 24-sample delay spread; the rows
    # mix fixed and drawn tap phases, and every fourth has zero gains
    cfg = ChainConfig.for_payload(960, codec=CODEC, correct_cfo=False)
    harsh = make_preset("coupling-harsh")
    zero = _zero_taps(harsh, snr_db=10.0)
    models = [zero if f % 4 == 3 else
              replace(harsh, snr_db=(2.0, 8.0, 25.0)[f % 3],
                      randomize_tap_phases=f % 2 == 1)
              for f in range(12)]
    seeds = [0 if f % 4 == 3 else f for f in range(12)]
    errors, lost = _each_frame_alone(_stream(cfg, models, seeds), cfg)
    assert errors[3::4].tolist() == [cfg.payload_bits] * 3
    assert lost[3::4].all() and (lost == 0).any()


POOL_ROWS = 34   # past one and two 16-frame coded groups, one 32-frame uncoded


@cache
def _seeded_pool(name):
    """A sweep-like pool of frames (payload, model, its own noise seed,
    knowledge) on ``CHAINS[name]``, mixing sync losses, errored and clean
    frames, and the per-frame results of the pool sent in order."""
    cfg = CHAINS[name]
    harsh = make_preset("coupling-harsh")
    knowledge = sweep.genie_knowledge(cfg, replace(harsh, snr_db=2.0))
    frames = [(np.random.default_rng(stable_seed(3, r, 0)).integers(
                   0, 2, cfg.payload_bits, dtype=np.uint8),
               replace(harsh, snr_db=(-10.0, 0.0, 1.0, 2.0, 20.0)[r % 5]),
               stable_seed(3, r, 1), knowledge) for r in range(POOL_ROWS)]
    return frames, sweep.link_trials(frames, cfg)


@pytest.mark.parametrize("name", CHAINS)
@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(POOL_ROWS)), rows=st.integers(15, POOL_ROWS))
def test_row_order_does_not_change_any_frame_result(name, order, rows):
    frames, (errors, lost) = _seeded_pool(name)
    order = list(order[:rows])
    got_errors, got_lost = sweep.link_trials((frames[r] for r in order),
                                             CHAINS[name])
    assert got_errors.tolist() == errors[order].tolist()
    assert got_lost.tolist() == lost[order].tolist()


def test_zero_response_knowledge_loses_every_frame_of_a_batch():
    cfg = CHAINS["coded"]
    zero = ChannelKnowledge(freq_response=np.zeros(cfg.frame.fft_size),
                            noise_variance=0.0)
    frames = [(payload, model, seed, zero)
              for payload, model, seed, _ in _mixed_trials(cfg)]
    errors, lost = sweep.link_trials(frames, cfg)
    assert errors.tolist() == [cfg.payload_bits] * len(frames)
    assert lost.tolist() == [1] * len(frames)


def test_engine_decodes_each_group_before_drawing_the_next(monkeypatch):
    # two 518-step codewords a frame: groups of 31 frames; every fourth
    # frame and the whole second group are sent at -10 dB and lose sync
    cfg = CHAINS["coded"]
    chunk = sweep._chunk(cfg)
    assert chunk == 31
    harsh = make_preset("coupling-harsh")
    knowledge = sweep.genie_knowledge(cfg, replace(harsh, snr_db=20.0))
    n_frames = 3 * chunk + 10
    missed = {f for f in range(n_frames) if f % 4 == 0 or chunk <= f < 2 * chunk}
    payloads = np.random.default_rng(11).integers(
        0, 2, (n_frames, cfg.payload_bits), dtype=np.uint8)
    drawn = 0

    def stream():
        nonlocal drawn
        for f, payload in enumerate(payloads):
            drawn += 1
            snr = -10.0 if f in missed else 20.0
            yield payload, replace(harsh, snr_db=snr), f, knowledge

    calls = []   # (frames drawn, payload rows decoded) at every decode call
    decode = sweep.decode_frames

    def spy(soft_bits, *args):
        decoded = decode(soft_bits, *args)
        calls.append((drawn, decoded.info_bits))
        return decoded

    # a spy sees the decode calls of the calling process only: one CPU
    # keeps every share there
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    monkeypatch.setattr(sweep, "decode_frames", spy)
    errors, lost = sweep.link_trials(stream(), cfg)
    assert errors[sorted(missed)].tolist() == [cfg.payload_bits] * len(missed)
    assert lost.tolist() == [int(f in missed) for f in range(n_frames)]
    # one call per group that kept a frame, made once the group is drawn and
    # before the next is, on exactly that group's received frames
    groups = [range(start, min(start + chunk, n_frames))
              for start in range(0, n_frames, chunk)]
    expected = [(group.stop, [f for f in group if f not in missed])
                for group in groups if not missed.issuperset(group)]
    assert len(expected) == len(groups) - 1   # the second group makes none
    assert [drawn for drawn, _ in calls] == [stop for stop, _ in expected]
    for (_, rows), (_, frames) in zip(calls, expected):
        assert rows.tolist() == payloads[frames].tolist()


# Coded sweeps whose trials are not multiples of a group (33 trials of one
# codeword, 70 trials of two), with the CSVs the one-frame-at-a-time engine
# wrote for them and the frames each decode call gets.  A sweep is one
# ``link_trials`` call, which draws groups of frames (32 of one 1030-step
# codeword, or 31 of two 518-step ones, by the trellis bound) across point
# boundaries and decodes each group's received frames; frames lost to sync
# never reach the decoder, which is every frame at -10 dB and all but three
# at -7 dB (66 and 143 received), and a group that loses every frame makes
# no call.
SWEEPS = {
    "one_codeword_33_trials": (
        {"scenario": "per-sweep", "master_seed": 20261018,
         "baseband": {"modulation": "bpsk", "payload_bits": 992,
                      "payload_blocks": 9, "receiver": RECEIVER},
         "channel": {"preset": "coupling-harsh"},
         "sweep": {"axis": "snr_db", "values": [-10.0, -1.0, 1.0], "trials": 33}},
        "snr_db,trials,bits,bit_errors,ber,ber_ci95,packets,packet_errors,per,per_ci95\n"
        "-10,33,32736,32736,1,0,33,33,1,0\n"
        "-1,33,32736,1714,0.05235826,0.0024129592,33,33,1,0\n"
        "1,33,32736,29,0.000885874878,0.000322276789,33,3,0.0909090909,0.0980840604\n",
        [31, 32, 3]),
    "two_codewords_70_trials": (
        {"scenario": "per-sweep", "master_seed": 5,
         "baseband": {"modulation": "qpsk", "payload_bits": 960,
                      "codec": {"info_bits_per_codeword": 512},
                      "receiver": RECEIVER},
         "channel": {"preset": "coupling-mild"},
         "sweep": {"axis": "snr_db", "values": [-7.0, 3.0, 5.0], "trials": 70}},
        "snr_db,trials,bits,bit_errors,ber,ber_ci95,packets,packet_errors,per,per_ci95\n"
        "-7,70,67200,65736,0.978214286,0.00110373892,70,70,1,0\n"
        "3,70,67200,803,0.0119494048,0.000821535212,70,44,0.628571429,0.113191559\n"
        "5,70,67200,12,0.000178571429,0.000101025419,70,1,0.0142857143,0.0277987697\n",
        [1, 2, 23, 31, 31, 31, 24]),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_chunked_sweep_writes_the_one_frame_engine_csv(name, tmp_path,
                                                       monkeypatch):
    data, expected, decode_calls = SWEEPS[name]
    batches = []
    decode = sweep.decode_frames

    def spy(soft_bits, *args):
        batches.append(len(soft_bits))
        return decode(soft_bits, *args)

    # a spy sees the decode calls of the calling process only: one CPU
    # keeps every share there
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    monkeypatch.setattr(sweep, "decode_frames", spy)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(data))
    out = tmp_path / f"{name}.csv"
    assert main(["per-sweep", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert batches == decode_calls


def _bench_chain(workload, spreading_factor=None):
    data = json.loads((WORKLOAD_DIR / f"{workload}.json").read_text())["config"]
    if spreading_factor is not None:
        data["baseband"]["spreading_factor"] = spreading_factor
    return parse_config(data, data["scenario"]).chain


# frames in a group of each benchmark chain and of the two-codeword chain:
# uncoded frames count against the frame and sample bounds only, and a
# mux-baseband frame's three 518-step codewords against the decision bound
# (63 rows); spreading lengthens the mux-baseband frame to 7904 samples at
# SF 2 and 14,787,776 at SF 4097, which the sample bound (32 x 4096) caps
# at 16 frames and at one
@pytest.mark.parametrize("chain, frames", [
    ("coded-harsh", 32), ("uncoded-los", 32), ("mux-baseband", 21),
    ("coded", 31), ("mux-baseband/sf2", 16), ("mux-baseband/sf4097", 1)])
def test_a_group_is_bounded_by_frames_and_by_trellis_steps(chain, frames):
    workload, _, sf = chain.partition("/sf")
    cfg = CHAINS[chain] if chain in CHAINS else _bench_chain(
        workload, int(sf) if sf else None)
    assert sweep.GROUP_SAMPLES == 32 * 4096
    assert sweep._chunk(cfg) == frames


def test_a_group_is_bounded_by_decisions_at_any_constraint_length():
    # 256 states: two 520-step codewords a frame take 266,240 bytes of
    # decisions, seven frames' worth of the budget
    cfg = ChainConfig.for_payload(960, codec=CodecConfig(
        info_bits_per_codeword=512, constraint_length=9), **RECEIVER)
    assert sweep._chunk(cfg) == 7


# the group bounds shrunk on the two-codeword chain, and the frames of a
# group they leave: one or five frames; one codeword's decisions, less
# than a frame, which still makes one-frame groups; five codewords' decisions
@pytest.mark.parametrize("frames, codewords, chunk", [
    (1, None, 1), (5, None, 5), (None, 1, 1), (None, 5, 2)])
def test_chunk_size_does_not_change_results(frames, codewords, chunk,
                                            monkeypatch):
    cfg = CHAINS["coded"]
    spec = sweep.SweepSpec(values=(-7.0, 3.0), trials=7, axis="snr_db")
    model = make_preset("coupling-mild")
    reference = sweep.run_sweep(cfg, model, spec, master_seed=9).points
    if frames is not None:
        monkeypatch.setattr(sweep, "GROUP_FRAMES", frames)
    if codewords is not None:
        monkeypatch.setattr(sweep, "DECISION_BYTES",
                            codewords * cfg.codec.decision_bytes)
    assert sweep._chunk(cfg) == chunk
    assert sweep.run_sweep(cfg, model, spec, master_seed=9).points == reference


# the sample bound shrunk to one and to three frames of the uncoded chain,
# which only the frame and sample bounds size
@pytest.mark.parametrize("frames", [1, 3])
def test_a_sample_bound_does_not_change_results(frames, monkeypatch):
    cfg = CHAINS["uncoded"]
    spec = sweep.SweepSpec(values=(-7.0, 3.0), trials=7, axis="snr_db")
    model = make_preset("coupling-mild")
    reference = sweep.run_sweep(cfg, model, spec, master_seed=9).points
    monkeypatch.setattr(sweep, "GROUP_SAMPLES",
                        frames * cfg.frame.frame_len + cfg.frame.frame_len - 1)
    assert sweep._chunk(cfg) == frames
    assert sweep.run_sweep(cfg, model, spec, master_seed=9).points == reference


def test_mux_run_decodes_every_copy_in_one_engine_call(tmp_path, monkeypatch):
    # 20 copies of three 518-step codewords each: the trellis bound makes
    # groups of 21 frames, so one group holds them all
    batches = []
    decode = sweep.decode_frames

    def spy(soft_bits, *args):
        batches.append(len(soft_bits))
        return decode(soft_bits, *args)

    # a spy sees the decode calls of the calling process only: one CPU
    # keeps every share there
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    monkeypatch.setattr(sweep, "decode_frames", spy)
    out = tmp_path / "mux_baseband.csv"
    assert main(["mux-sim", "--config", str(GOLDEN_DIR / "mux_baseband.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "mux_baseband.csv").read_bytes()
    assert batches == [20]
