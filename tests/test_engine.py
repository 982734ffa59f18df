"""The streaming trial engine gives every trial the result it gets alone.

``link_trials`` takes a stream of frames and decodes the codewords of the
received ones together, ``DECODE_ROWS`` codewords' worth of frames at a
time; a sweep hands it every trial of every point, and a baseband-backed
mux run all of its packet copies.  Neither the chunk a trial lands in nor
where a chunk ends may change a result.
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
from linksim.channel import ChannelModel, ChannelTap, make_preset
from linksim.cli import main
from linksim.harness import sweep
from linksim.harness.seeding import stable_seed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RECEIVER = {"correct_cfo": False, "timing_search": 8}
CHAINS = {
    "coded": ChainConfig.for_payload(
        960, codec=CodecConfig(info_bits_per_codeword=512), **RECEIVER),
    "uncoded": ChainConfig.for_payload(960, codec=None, **RECEIVER),
}


def _mixed_trials(cfg):
    """Frames of a stream where some lose sync (-10 dB and a channel whose
    only tap is zero), some decode with errors and some decode cleanly; the
    genie knowledge alternates between two objects (4 dB and 8 dB)."""
    harsh = make_preset("coupling-harsh")
    channels = [(replace(harsh, snr_db=snr), seed) for seed, snr in
                enumerate((-10.0, 0.0, 2.0, 4.0, -10.0, 8.0, 3.0, 20.0))]
    channels.insert(3, (ChannelModel(taps=(ChannelTap(0, 0j),), snr_db=10.0), 0))
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


def test_a_group_of_mixed_channel_lengths():
    # with no timing_search, a frame is searched for at every offset where
    # it fits, so rows of one group have windows of 0 (los and the zero
    # tap) and 24 (harsh) samples
    cfg = ChainConfig.for_payload(960, codec=CODEC, correct_cfo=False)
    zero = ChannelModel(taps=(ChannelTap(0, 0j),), snr_db=10.0)
    models = [zero if f % 4 == 3 else
              make_preset(("coupling-los", "coupling-harsh")[f % 2],
                          snr_db=(2.0, 8.0, 25.0)[f % 3])
              for f in range(12)]
    seeds = [0 if f % 4 == 3 else f for f in range(12)]
    errors, lost = _each_frame_alone(_stream(cfg, models, seeds), cfg)
    assert errors[3::4].tolist() == [cfg.payload_bits] * 3
    assert lost[3::4].all() and (lost == 0).any()


POOL_ROWS = 34   # past one and two 16-frame coded chunks, one 32-frame uncoded


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


def test_engine_holds_one_chunk_of_received_frames(monkeypatch):
    # two codewords a frame: chunks of 16 received frames; every fourth
    # frame is sent at -10 dB and loses sync
    cfg = CHAINS["coded"]
    chunk = sweep.DECODE_ROWS // cfg.n_codewords()
    harsh = make_preset("coupling-harsh")
    knowledge = sweep.genie_knowledge(cfg, replace(harsh, snr_db=8.0))
    n_frames = 3 * chunk + 10
    missed = range(0, n_frames, 4)
    rng = np.random.default_rng(11)
    drawn = 0

    def stream():
        nonlocal drawn
        for f in range(n_frames):
            drawn += 1
            snr = -10.0 if f in missed else 8.0
            yield (rng.integers(0, 2, cfg.payload_bits, dtype=np.uint8),
                   replace(harsh, snr_db=snr), f, knowledge)

    calls = []   # (frames drawn, frames in the batch) at every decode call
    decode = sweep.decode_frames

    def spy(soft_bits, *args):
        calls.append((drawn, len(soft_bits)))
        return decode(soft_bits, *args)

    monkeypatch.setattr(sweep, "decode_frames", spy)
    errors, lost = sweep.link_trials(stream(), cfg)
    assert errors[missed].tolist() == [cfg.payload_bits] * len(missed)
    assert lost[missed].all()
    decoded = 0
    for drawn_then, batch in calls:
        received = drawn_then - sum(f < drawn_then for f in missed)
        assert received - decoded == batch <= chunk
        decoded += batch
    assert decoded == n_frames - len(missed)
    assert len(calls) > 2
    assert [batch for _, batch in calls[:-1]] == [chunk] * (len(calls) - 1)


# Coded sweeps whose received frames are not multiples of a chunk (33
# trials of one codeword, 70 trials of two), with the CSVs the
# one-frame-at-a-time engine wrote for them and the frames each decode call
# gets.  A sweep is one ``link_trials`` call, which decodes a chunk once
# DECODE_ROWS codewords' worth of received frames (32 or 16) are in, across
# point boundaries; frames lost to sync never reach the decoder, which is
# every frame at -10 dB and all but three at -7 dB (66 and 143 received).
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
        [32, 32, 2]),
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
        [16] * 8 + [15]),
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

    monkeypatch.setattr(sweep, "decode_frames", spy)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(data))
    out = tmp_path / f"{name}.csv"
    assert main(["per-sweep", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert batches == decode_calls


@pytest.mark.parametrize("rows", [1, 5])
def test_chunk_size_does_not_change_results(rows, monkeypatch):
    cfg = CHAINS["coded"]
    spec = sweep.SweepSpec(values=(-7.0, 3.0), trials=7, axis="snr_db")
    model = make_preset("coupling-mild")
    reference = sweep.run_sweep(cfg, model, spec, master_seed=9).points
    monkeypatch.setattr(sweep, "DECODE_ROWS", rows)
    assert sweep.run_sweep(cfg, model, spec, master_seed=9).points == reference


def test_mux_run_decodes_every_copy_in_one_engine_call(tmp_path, monkeypatch):
    # 20 copies of 3 codewords each: DECODE_ROWS 32 makes chunks of 10 frames
    batches = []
    decode = sweep.decode_frames

    def spy(soft_bits, *args):
        batches.append(len(soft_bits))
        return decode(soft_bits, *args)

    monkeypatch.setattr(sweep, "decode_frames", spy)
    out = tmp_path / "mux_baseband.csv"
    assert main(["mux-sim", "--config", str(GOLDEN_DIR / "mux_baseband.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / "mux_baseband.csv").read_bytes()
    assert batches == [10, 10]
