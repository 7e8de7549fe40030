"""End-to-end harness: synthesis, detection, localization, CLI plumbing."""
import csv
import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.signal import fftconvolve

import foldloc
from foldloc import harness, lte, traceio
from foldloc.amplitude import estimate_subsample, fit_amplitude
from foldloc.detect import (FRAME_LEN, PSS_TEMPLATE_LEN, TEMPLATE_LEN,
                            TEMPLATE_START, BankMismatchError, Detection,
                            _stage1_candidates, _window_norms,
                            hierarchical_detect, stack_frames,
                            suppress_false_positives)
from foldloc.frontend import (DETECTOR_RATE_HZ, SPEED_OF_LIGHT, CellConfig,
                              FrontEndConfig, design_lowpass, path_amplitude,
                              received_power_dbm)
from foldloc.harness import (cmd_localize, cmd_synth, compute_metrics,
                             detect_trace, run_eval, run_fix, run_urban_sim,
                             synth_fix_trace)
from foldloc.lte import (FrameConfig, Pci, central_62_bins, generate_pss,
                         generate_sss, occupied_bins)
from foldloc.scenario import CellDatabase, Scenario, scenario_cell_db, substream

FS = 1.92e6
CFG = FrameConfig.from_bandwidth(1.4)


def _cell(pci, x, y, origin_samples=0.0, dbm=46.0):
    return CellConfig(pci=Pci(pci), carrier_hz=2.145e9, frame_cfg=CFG,
                      position=(x, y), tx_power_dbm=dbm,
                      frame_time_origin_s=origin_samples / FS)


def _single_cell_scenario(n_frames=2):
    # receiver exactly 3 samples of travel away from the tower
    return Scenario(cells=[_cell(101, 0.0, 0.0)],
                    front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 468.75, 0.0)],
                    rng_seed=5, n_frames_per_fix=n_frames)


def _three_cell_ratio_scenario(n_frames=8):
    """Cells offset in frame-time so their sync windows never overlap;
    tx power compensates path loss to keep folded amplitudes comparable."""
    cells = [_cell(101, 800.0, 0.0, 0, 46.0),
             _cell(202, 0.0, 1000.0, 1500, 46.0 + 20 * np.log10(1000 / 800)),
             _cell(303, -884.0, -884.0, 3000, 46.0 + 20 * np.log10(1250 / 800))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 0.0, 0.0), (1.0, 30.0, -20.0)],
                    rng_seed=5, n_frames_per_fix=n_frames, solver="ratio")


# -------------------------------------------------------------- synthesis


def test_synth_deterministic_and_sized():
    sc = _single_cell_scenario()
    a = synth_fix_trace(sc, 0)
    b = synth_fix_trace(sc, 0)
    assert a.shape == (2 * FRAME_LEN,)
    assert np.array_equal(a, b)


def test_synth_differs_across_fixes_and_seeds():
    sc = _three_cell_ratio_scenario(n_frames=2)
    a = synth_fix_trace(sc, 0)
    b = synth_fix_trace(sc, 1)
    assert not np.array_equal(a, b)
    c = synth_fix_trace(replace(sc, rng_seed=6), 0)
    assert not np.array_equal(a, c)


def test_noise_added_once_and_not_part_of_front_end_identity():
    quiet = _single_cell_scenario()
    noisy = replace(quiet, front_end=FrontEndConfig(noise_sigma=1e-9))
    assert noisy.front_end == quiet.front_end
    assert hash(noisy.front_end) == hash(quiet.front_end)
    noise = substream(quiet.rng_seed, "noise", 0).normal(0.0, 1e-9, 2 * FRAME_LEN)
    assert np.array_equal(synth_fix_trace(noisy, 0),
                          synth_fix_trace(quiet, 0) + noise)


def test_every_front_end_setting_reaches_the_trace():
    """No front-end setting is accepted and then ignored: changing any
    one of them changes the trace of a one-frame fix of a 1.4 MHz and a
    5 MHz cell."""
    rx = (900.0, 100.0)
    cells = [_cell(11, 0.0, 0.0),
             CellConfig(pci=Pci(22), carrier_hz=1.8e9,
                        frame_cfg=FrameConfig.from_bandwidth(5.0),
                        position=(3000.0, 0.0), tx_power_dbm=46.0)]
    sc = Scenario(cells=cells, front_end=FrontEndConfig(), n_frames_per_fix=1,
                  trajectory=[(0.0, *rx)])
    powers = [received_power_dbm(c, rx) for c in cells]
    assert min(powers) >= FrontEndConfig().sensitivity_floor_dbm
    # a non-default valid value of every field; the floor drops one cell
    changes = {"noise_sigma": 1e-9,
               "sensitivity_floor_dbm": float(np.mean(powers))}
    base = synth_fix_trace(sc, 0)
    for f in fields(FrontEndConfig):
        assert f.name in changes, f"no test value for {f.name}"
        fe = replace(FrontEndConfig(), **{f.name: changes[f.name]})
        assert getattr(fe, f.name) != f.default, f.name
        changed = replace(sc, front_end=fe)
        assert not np.array_equal(synth_fix_trace(changed, 0), base), f.name
    floor = replace(sc, front_end=FrontEndConfig(
        sensitivity_floor_dbm=changes["sensitivity_floor_dbm"]))
    assert len(harness._heard_cells(floor, rx)) == 1


def _seed_frame(cfg, pci, rng):
    """One frame as the loop-based reference synthesizes it: a per-element
    QPSK exp, a per-bin-major IFFT and a per-symbol cyclic-prefix loop."""
    grid = np.zeros((cfg.fft_size, 140), dtype=np.complex128)
    band = occupied_bins(cfg)
    bits = rng.integers(0, 4, size=(band.size, 140))
    grid[band, :] = np.exp(1j * (np.pi / 4 + np.pi / 2 * bits))
    c62 = central_62_bins(cfg.fft_size)
    for col, subframe in zip((5, 75), (0, 5)):
        grid[c62, col] = generate_sss(pci.group, pci.sector, subframe)
    for col in (6, 76):
        grid[c62, col] = generate_pss(pci.sector)
    body = np.fft.ifft(grid, axis=0, norm="ortho")
    pieces = []
    for s in range(140):
        cp = cfg.cp_len(s % 7)
        pieces += [body[-cp:, s], body[:, s]]
    return np.concatenate(pieces)


def _seed_synth_fix_trace(sc, fix_idx):
    """Reference trace: frame-by-frame synthesis, an fftfreq phase ramp and
    a full-rate 'same'-mode FIR decimated afterwards."""
    _, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    fe = sc.front_end
    total = np.zeros(sc.n_frames_per_fix * FRAME_LEN)
    for ci, cell in enumerate(sc.cells):
        if received_power_dbm(cell, rx) < fe.sensitivity_floor_dbm:
            continue
        cfg = cell.frame_cfg
        rng = substream(sc.rng_seed, "payload", fix_idx, ci)
        bb = np.concatenate([_seed_frame(cfg, cell.pci, rng)
                             for _ in range(sc.n_frames_per_fix)])
        d = float(np.hypot(*(np.asarray(cell.position) - rx)))
        delay_s = d / SPEED_OF_LIGHT + cell.frame_time_origin_s
        freqs = np.fft.fftfreq(bb.size, 1.0 / cfg.sample_rate_hz)
        bb = np.fft.ifft(np.fft.fft(bb) * np.exp(-2j * np.pi * freqs * delay_s))
        a_rx = path_amplitude(d, cell.carrier_hz) * \
            10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
        sq = 0.5 * np.abs(a_rx * bb) ** 2
        dec = int(round(cfg.sample_rate_hz / DETECTOR_RATE_HZ))
        if dec > 1:
            taps = design_lowpass(cfg.sample_rate_hz)
            sq = fftconvolve(sq, taps, mode="same")[::dec]
        total += sq
    return total


S5_TOWERS = ((0.0, 0.0), (6000.0, 0.0), (0.0, 6000.0), (6000.0, 6000.0),
             (3000.0, -3000.0))


def _s5_scenario(origins):
    cells = [CellConfig(pci=Pci(p), carrier_hz=700e6 + 20e6 * i, frame_cfg=CFG,
                        position=pos, tx_power_dbm=46.0,
                        frame_time_origin_s=o / FS)
             for i, (p, pos, o) in enumerate(zip((10, 84, 150, 222, 301),
                                                 S5_TOWERS, origins))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 2000.0, 2500.0), (1.0, 2130.0, 2290.0)],
                    rng_seed=3, n_frames_per_fix=2)


def _wideband_scenario(bandwidths=(20.0, 10.0, 5.0), n_frames=2):
    cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                        frame_cfg=FrameConfig.from_bandwidth(bw), position=pos,
                        tx_power_dbm=46.0, frame_time_origin_s=o / FS)
             for p, bw, f, pos, o in zip(
                 (101, 202, 303), bandwidths, (2.115e9, 2.145e9, 2.175e9),
                 ((800.0, 0.0), (0.0, 1000.0), (-884.0, -884.0)),
                 (0, 1500, 3000))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 10.0, -20.0)], rng_seed=3,
                    n_frames_per_fix=n_frames, solver="ratio")


# the delay views a cell's n frames as (n * fft_size / 128, FRAME_LEN): one
# row per frame at 1.4 MHz, and 12 per frame at 15 MHz (FFT size 1536)
@pytest.mark.parametrize("make", [
    lambda: _s5_scenario((0, 1500, 3000, 4500, 6000)),
    lambda: _s5_scenario((0,) * 5),
    _wideband_scenario,
    lambda: replace(_s5_scenario((0, 1500, 3000, 4500, 6000)),
                    n_frames_per_fix=1),
    lambda: _wideband_scenario(n_frames=1),
    lambda: _wideband_scenario(n_frames=3),
    lambda: _wideband_scenario((15.0, 3.0, 1.4)),
], ids=["s5_offset", "s5_synchronized", "wideband_20_10_5", "s5_offset_1_frame",
        "wideband_1_frame", "wideband_3_frames", "wideband_15_3_1.4"])
def test_synth_matches_frame_by_frame_reference(make):
    sc = make()
    for i in range(len(sc.trajectory)):
        want = _seed_synth_fix_trace(sc, i)
        got = synth_fix_trace(sc, i)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_synth_does_not_depend_on_fft_threads(monkeypatch):
    # a 5 MHz cell of 6 frames is just under the size at which a layer
    # splits across threads, one of 7 frames just over it
    frame = FrameConfig.from_bandwidth(5.0).frame_len
    assert 6 * frame < lte._PARALLEL_MIN <= 7 * frame
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # more thread switches inside the blocks
    try:
        for sc in (_wideband_scenario((20.0, 15.0, 1.4)),
                   _wideband_scenario((5.0, 3.0, 1.4), n_frames=6),
                   _wideband_scenario((5.0, 3.0, 1.4), n_frames=7)):
            runs = []
            for share in (1, 2, 3):   # 3: more threads than two CPUs
                monkeypatch.setattr(lte, "_CPU_SHARE", share)
                runs.append(synth_fix_trace(sc, 0))
            assert all(np.array_equal(r, runs[0]) for r in runs[1:])
    finally:
        sys.setswitchinterval(interval)


def test_pool_workers_share_the_cpus(monkeypatch):
    monkeypatch.setattr(lte, "_CPU_SHARE", 0)
    cpus = len(os.sched_getaffinity(0))
    lte._share_cpus(1)
    assert lte._CPU_SHARE == cpus
    lte._share_cpus(cpus + 1)
    assert lte._CPU_SHARE == 1


def test_traced_layers_run_on_the_calling_thread(monkeypatch):
    """Helper threads never enter a layer a tracer may wrap: every call of
    one, through any foldloc binding of it, runs on the thread that
    synthesizes the fix, so the spans of a tracer with one stack nest."""
    calls = []

    def recording(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return original(*args, **kwargs)
        return wrapper

    for mod_name, attr in (("lte", "frame_samples"),
                           ("frontend", "fold_baseband"),
                           ("frontend", "lowpass_decimate")):
        original = getattr(sys.modules[f"foldloc.{mod_name}"], attr)
        wrapper = recording(attr, original)
        for name, mod in list(sys.modules.items()):
            if name == "foldloc" or name.startswith("foldloc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    helpers = []
    monkeypatch.setattr(lte, "_helpers",
                        lambda real=lte._helpers: helpers.append(1) or real())
    monkeypatch.setattr(lte, "_CPU_SHARE", 2)
    synth_fix_trace(_wideband_scenario(), 0)
    assert helpers, "no layer split across threads"
    assert {n for n, _ in calls} == {"frame_samples", "fold_baseband",
                                     "lowpass_decimate"}
    assert {t for _, t in calls} == {threading.get_ident()}


_FORKED_POOL_SCRIPT = """
import os
from foldloc import harness, lte
from foldloc.lte import FrameConfig, Pci
from foldloc.frontend import CellConfig, FrontEndConfig
from foldloc.scenario import Scenario

cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                    frame_cfg=FrameConfig.from_bandwidth(bw),
                    position=pos, tx_power_dbm=46.0)
         for p, bw, f, pos in ((101, 20.0, 2.115e9, (800.0, 0.0)),
                               (202, 5.0, 2.145e9, (0.0, 1000.0)),
                               (303, 5.0, 2.175e9, (-884.0, -884.0)))]
sc = Scenario(cells=cells, front_end=FrontEndConfig(),
              trajectory=[(0.0, 10.0, -20.0), (1.0, 30.0, 5.0)],
              rng_seed=3, n_frames_per_fix=2, solver="ratio")
lte._CPU_SHARE = 2
serial = harness.run_eval(sc).to_json()   # the parent's helper pool exists
assert lte._helper_pool is not None
# four CPUs, so each of two workers would run its large layers on two
os.sched_getaffinity = lambda pid: set(range(4))
print(harness.run_eval(sc, workers=2).to_json() == serial)
"""


def test_worker_processes_do_not_inherit_the_helper_pool():
    """A forked run_eval worker makes its own helper threads: submitting
    to the pool it inherits from its parent would wait forever."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(foldloc.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _FORKED_POOL_SCRIPT],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_eval(workers=2) did not finish after the parent "
                    "used its helper pool")
    assert proc.returncode == 0, err
    assert out.strip() == "True"


# ------------------------------------------------------------- detection


def _seed_ncc(x, tpl):
    """Circular zero-mean NCC of one unit-norm zero-mean template, alone."""
    n = x.size
    num = np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(tpl, n=n)), n=n)
    denom = _window_norms(x, tpl.size)
    return np.where(denom > 0.0, num / np.maximum(denom, 1e-30), 0.0)


def _seed_stage1(stacked, bank, thresh_pss, group_gap=8):
    """Reference stage 1: one NCC per PSS shape; lags above thresh_pss at
    most group_gap apart form a run, and each run keeps its best lag."""
    cands = []
    for pss in bank.pss_unit:
        scores = _seed_ncc(stacked, pss)
        above = np.flatnonzero(scores > thresh_pss)
        if above.size == 0:
            continue
        run = [above[0]]
        for i in above[1:]:
            if i - run[-1] > group_gap:
                cands.append(run[np.argmax(scores[run])])
                run = [i]
            else:
                run.append(i)
        cands.append(run[np.argmax(scores[run])])
    return sorted(set(cands))


def _seed_stage2(stacked, bank, thresh_pss, thresh_sss, candidate_window=3):
    """Reference stage 2: one matrix-vector product per candidate lag; a
    PCI keeps the first lag with its best score above thresh_sss."""
    n = stacked.size
    dets = {}
    for pk in _seed_stage1(stacked, bank, thresh_pss):
        base = pk - (TEMPLATE_LEN - PSS_TEMPLATE_LEN)
        for lag in range(base - candidate_window, base + candidate_window + 1):
            w = stacked.take(range(lag, lag + TEMPLATE_LEN), mode="wrap")
            w0 = w - w.mean()
            nrm = np.linalg.norm(w0)
            if nrm < 1e-30:
                continue
            scores = bank.samples @ (w0 / nrm)
            for p in np.flatnonzero(scores > thresh_sss):
                if p not in dets or scores[p] > dets[p].score:
                    dets[p] = Detection(Pci(int(p)), lag % n, float(scores[p]))
    return sorted(dets.values(),
                  key=lambda d: (-d.score, d.delay_samples, d.pci.value))


def _seed_enrich(stacked, bank, dets):
    """Reference enrichment: received power (the fitted scale of the unit
    template over its norm) and sub-sample offset of every detection."""
    for d in dets:
        tpl = bank.samples[d.pci.value]
        d.amplitude = fit_amplitude(stacked, tpl, d.delay_samples) \
            / bank.norms[d.pci.value]
        d.subsample_offset = estimate_subsample(stacked, tpl, d.delay_samples).tau
    return dets


def _assert_same_detections(got, want):
    assert [(d.pci, d.delay_samples) for d in got] == \
        [(d.pci, d.delay_samples) for d in want]
    for g, w in zip(got, want):
        assert abs(g.score - w.score) <= 1e-12
        assert abs(g.amplitude - w.amplitude) <= 1e-12 * max(abs(w.amplitude), 1e-300)
        assert abs(g.subsample_offset - w.subsample_offset) <= 1e-9


@pytest.mark.parametrize("origins", [(0, 1500, 3000, 4500, 6000), (0,) * 5],
                         ids=["s5_offset", "s5_synchronized"])
def test_stage1_matches_per_shape_reference(bank, origins):
    sc = _s5_scenario(origins)
    for i in range(len(sc.trajectory)):
        stacked = stack_frames(synth_fix_trace(sc, i), sc.n_frames_per_fix)
        for thresh_pss in (0.1, 0.3):
            want = _seed_stage1(stacked, bank, thresh_pss)
            assert want
            assert _stage1_candidates(stacked, bank, thresh_pss) == want


@pytest.mark.parametrize("origins", [(0, 1500, 3000, 4500, 6000), (0,) * 5],
                         ids=["s5_offset", "s5_synchronized"])
def test_stage2_matches_per_lag_reference(bank, origins):
    sc = _s5_scenario(origins)
    for i in range(len(sc.trajectory)):
        trace = synth_fix_trace(sc, i)
        stacked = stack_frames(trace, sc.n_frames_per_fix)
        for thresh_pss, thresh_sss in ((0.3, 0.5), (0.1, 0.3)):
            want = _seed_stage2(stacked, bank, thresh_pss, thresh_sss)
            assert want
            _assert_same_detections(
                hierarchical_detect(stacked, bank, thresh_pss, thresh_sss), want)
        want = suppress_false_positives(
            _seed_enrich(stacked, bank, _seed_stage2(stacked, bank, 0.3, 0.5)))
        _assert_same_detections(detect_trace(trace, bank, n_stack=2), want)


def test_detect_single_cell_at_geometric_delay(bank):
    sc = _single_cell_scenario()
    trace = synth_fix_trace(sc, 0)
    dets = detect_trace(trace, bank, n_stack=2)
    assert len(dets) == 1
    d = dets[0]
    assert d.pci.value == 101
    assert d.delay_samples == TEMPLATE_START + 3
    assert abs(d.subsample_offset) < 0.3
    # the amplitude is the received amplitude squared, whatever the PCI
    cell = sc.cells[0]
    a_rx = path_amplitude(468.75, cell.carrier_hz) * \
        10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
    assert d.amplitude == pytest.approx(a_rx ** 2, rel=0.01)
    with pytest.raises(ValueError, match="mode"):
        detect_trace(trace, bank, n_stack=2, mode="phat")


def test_detect_three_origin_separated_cells(bank):
    sc = _three_cell_ratio_scenario()
    dets = detect_trace(synth_fix_trace(sc, 0), bank, n_stack=8)
    got = {d.pci.value: d.delay_samples for d in dets}
    assert set(got) == {101, 202, 303}
    assert abs(got[101] - 689) <= 1
    assert abs(got[202] - 2190) <= 1
    assert abs(got[303] - 3692) <= 1


# ---------------------------------------------------------------- run_fix


def test_run_fix_record_roundtrips_through_json():
    sc = _single_cell_scenario()
    r = run_fix(sc, 0)
    back = json.loads(json.dumps(r))
    assert back["true_pcis"] == [101]
    assert back["detections"][0][0] == 101
    assert back["estimate"] is None   # one tower cannot localize
    assert back["n_towers"] == 1


def test_run_fix_records_amplitude_to_nine_significant_digits(bank):
    # received powers are ~1e-8 here, so rounding to decimal places would
    # keep only a few digits
    sc = _single_cell_scenario()
    (det,) = detect_trace(synth_fix_trace(sc, 0), bank, sc.thresh_pss,
                          sc.thresh_sss, sc.n_frames_per_fix)
    got = run_fix(sc, 0)["detections"][0][3]
    assert got == float(f"{det.amplitude:.9g}")
    assert got == pytest.approx(det.amplitude, rel=5e-9, abs=0.0)


def test_run_fix_keeps_true_pci_over_its_half_frame_alias():
    """Fix 5 of the seed-1 S5 offset scenario: PCI 10 at delay ~703 and
    its half-frame alias PCI 274 at ~10304 share a delay cluster; the
    cluster keeps the larger received power, which is PCI 10's."""
    point = (5.0, 1840.755179550707, 2415.420520220291)
    sc = replace(_s5_scenario((0, 1500, 3000, 4500, 6000)), rng_seed=1,
                 n_frames_per_fix=10,
                 trajectory=[(float(i), 2000.0, 2500.0) for i in range(5)]
                 + [point])
    got = {d[0]: d[1] for d in run_fix(sc, 5)["detections"]}
    assert 274 not in got
    assert abs(got[10] - 703) <= 1


def test_run_fix_ratio_solver_localizes():
    sc = _three_cell_ratio_scenario()
    r = run_fix(sc, 0)
    assert r["n_towers"] == 3
    assert r["estimate"] is not None
    assert r["error_m"] < 200.0
    assert r["converged"]


# ---------------------------------------------------------------- run_eval


def test_run_eval_metrics_recomputable():
    sc = _three_cell_ratio_scenario(n_frames=4)
    rep = run_eval(sc)
    assert compute_metrics(rep.records) == rep.metrics
    assert rep.scenario_summary["n_fixes"] == 2
    assert rep.scenario_summary["solver"] == "ratio"


def test_run_eval_repeat_is_byte_identical():
    sc = _single_cell_scenario()
    assert run_eval(sc).to_json() == run_eval(sc).to_json()


def test_run_eval_worker_pool_is_byte_identical():
    sc = _single_cell_scenario()
    assert run_eval(sc, workers=2).to_json() == run_eval(sc).to_json()


def test_compute_metrics_counts():
    records = [
        {"detections": [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
         "true_pcis": [1, 3], "error_m": 4.0},
        {"detections": [[3, 0, 0, 0, 0]],
         "true_pcis": [3], "error_m": None},
    ]
    m = compute_metrics(records)
    assert (m["tp"], m["fp"], m["fn"]) == (2, 1, 1)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["n_resolved"] == 1
    assert m["error_p50_m"] == 4.0


# ------------------------------------------------------------- urban study


def test_run_urban_sim_smoke():
    towers = [[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]]
    out = run_urban_sim(towers, n_fixes=20, timing_noise_samples=0.1,
                        epochs_per_fix=10, seed=3)
    assert len(out["errors_m"]) == 20
    assert 0.0 < out["p50_m"] < 20.0
    assert out["p50_m"] <= out["p90_m"] <= out["max_m"]
    again = run_urban_sim(towers, n_fixes=20, timing_noise_samples=0.1,
                          epochs_per_fix=10, seed=3)
    assert out == again


# ------------------------------------------------------------ file plumbing


def test_cmd_synth_writes_manifest_and_traces(tmp_path):
    sc = _single_cell_scenario()
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    rows = list(csv.DictReader(open(manifest)))
    assert len(rows) == 1
    samples, rate = traceio.read_trace(rows[0]["trace_path"])
    assert rate == FS
    assert samples.size == 2 * FRAME_LEN
    assert rows[0]["true_pcis"] == "101"


def test_cmd_detect_rejects_rate_mismatch(tmp_path, bank):
    from foldloc.harness import cmd_detect
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(FRAME_LEN), 3.84e6)
    with pytest.raises(BankMismatchError):
        cmd_detect(str(p), str(tmp_path / "d.csv"))


def test_cmd_localize_rows(tmp_path):
    # three synchronized towers, detections at exact geometric delays
    towers = [(10, 0.0, 0.0), (11, 2000.0, 0.0), (12, 1000.0, 1732.0)]
    db = CellDatabase([CellConfig(Pci(p), 2.145e9, CFG, (x, y), 46.0)
                       for p, x, y in towers])
    truth = np.array([700.0, 500.0])
    dets = []
    for p, x, y in towers:
        d_m = float(np.hypot(x - truth[0], y - truth[1]))
        delay = d_m / 156.25
        dets.append(Detection(Pci(p), int(delay), 0.9, 1.0,
                              delay - int(delay)))
    rows = cmd_localize([(0.0, dets), (1.0, dets[:2])], db, "tdoa")
    assert len(rows) == 2
    t, xs, ys, obj, n = rows[0]
    assert n == 3
    assert abs(float(xs) - truth[0]) < 1.0
    assert abs(float(ys) - truth[1]) < 1.0
    assert rows[1][1] == "" and rows[1][4] == 2


# ------------------------------------------------------------------- CLI


SCENARIO_INI = """\
[scenario]
seed = 5
n_frames_per_fix = 2

[cell.a]
pci = 101
carrier_hz = 2.145e9
x = 0
y = 0
tx_power_dbm = 46

[trajectory]
points = 0,468.75,0; 1,500,0
"""

CELL_DB = ("pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm\n"
           "101,0,0,2.145e9,1.4,46\n")

ROADS = ("node_a_id,node_b_id,ax,ay,bx,by,max_speed_mps\n"
         "a,b,-1000,0,1000,0,30\n")


def _run_cli(args):
    env = dict(os.environ)
    # the child imports the same foldloc as this process, installed or not
    src = os.path.dirname(os.path.dirname(foldloc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "foldloc", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "sc.ini").write_text(SCENARIO_INI)
    (d / "cells.csv").write_text(CELL_DB)
    (d / "roads.csv").write_text(ROADS)
    return d


def test_cli_synth_detect_chain(cli_workdir):
    r = _run_cli(["synth", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "traces")])
    assert r.returncode == 0, r.stderr
    manifest = cli_workdir / "traces" / "manifest.csv"
    assert manifest.exists()

    r = _run_cli(["detect", str(manifest),
                  "-o", str(cli_workdir / "dets")])
    assert r.returncode == 0, r.stderr
    det_manifest = cli_workdir / "dets" / "detections_manifest.csv"
    assert det_manifest.exists()
    first = list(csv.DictReader(open(det_manifest)))[0]
    det_rows = list(csv.DictReader(open(first["detections_path"])))
    assert det_rows[0]["pci"] == "101"

    r = _run_cli(["localize", str(det_manifest),
                  "--cell-db", str(cli_workdir / "cells.csv"),
                  "-o", str(cli_workdir / "traj.csv")])
    assert r.returncode == 0, r.stderr

    r = _run_cli(["track", str(cli_workdir / "traj.csv"),
                  "--roads", str(cli_workdir / "roads.csv"),
                  "-o", str(cli_workdir / "out")])
    assert r.returncode == 0, r.stderr
    assert (cli_workdir / "out.snapped.csv").exists()
    assert (cli_workdir / "out.alerts.csv").exists()


def test_cli_eval(cli_workdir):
    r = _run_cli(["eval", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "report.json")])
    assert r.returncode == 0, r.stderr
    report = json.loads((cli_workdir / "report.json").read_text())
    assert report["metrics"]["recall"] == 1.0


def test_cli_detect_builds_bank_once_per_process(tmp_path, monkeypatch):
    from foldloc.cli import main
    sc = replace(_single_cell_scenario(),
                 trajectory=[(0.0, 468.75, 0.0), (1.0, 500.0, 0.0)])
    manifest = cmd_synth(sc, str(tmp_path / "traces"))
    builds = []

    def counting_build_bank(*args, **kwargs):
        builds.append(args)
        return real_build_bank(*args, **kwargs)

    real_build_bank = harness.build_bank
    monkeypatch.setattr(harness, "build_bank", counting_build_bank)
    harness._bank_for.cache_clear()
    try:
        assert main(["detect", manifest, "-o", str(tmp_path / "dets")]) == 0
    finally:
        harness._bank_for.cache_clear()
    assert len(builds) == 1


def test_cli_localize_manifest_without_detections_path_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    (tmp_path / "manifest.csv").write_text("fix,t\n0,0.0\n")
    (tmp_path / "cells.csv").write_text(CELL_DB)
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(tmp_path / "cells.csv"),
                 "-o", str(tmp_path / "traj.csv")]) == 2
    assert "detections_path" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["subsample_offset", "amplitude", "score"])
def test_cli_localize_nonfinite_detection_exits_2(tmp_path, capsys, column,
                                                   value):
    from foldloc.cli import main
    fields = {"subsample_offset": "0.1", "amplitude": "1e-09", "score": "0.9"}
    rows = [dict(fields, pci=p, delay_samples=700 + 10 * p) for p in (1, 2, 3)]
    rows[1][column] = value
    dets = tmp_path / "dets.csv"
    with open(dets, "w", newline="") as f:
        w = csv.DictWriter(f, ["pci", "delay_samples", *fields])
        w.writeheader()
        w.writerows(rows)
    (tmp_path / "manifest.csv").write_text(f"t,detections_path\n0.0,{dets}\n")
    (tmp_path / "cells.csv").write_text(
        "pci,x,y,carrier_hz,bandwidth_mhz,tx_power_dbm\n"
        "1,0,0,2.145e9,1.4,46\n2,2000,0,2.145e9,1.4,46\n"
        "3,1000,1732,2.145e9,1.4,46\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(tmp_path / "cells.csv"),
                 "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{dets}:3" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_track_trajectory_without_x_est_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    (tmp_path / "traj.csv").write_text("t,y_est\n0.0,1.0\n")
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(tmp_path / "traj.csv"),
                 "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 2
    assert "x_est" in capsys.readouterr().err


TRACK_FIXES = "t,x_est,y_est\n0,0,5\n1,20,5\n2,40,5\n"
FENCE = "mode,exit\n-50,-50\n50,-50\n50,50\n-50,50\n"


@pytest.mark.parametrize("roads, fence, where", [
    (ROADS.replace(",30\n", ",nan\n"), None, "roads.csv:2: non-finite"),
    (ROADS, FENCE.replace("\n50,50\n", "\nnan,50\n"), "fence.csv:4: non-finite"),
    (ROADS, FENCE.replace("\n50,-50\n", "\n50,-50,7\n"), "fence.csv:3: expected"),
], ids=["speed_nan", "vertex_nan", "vertex_three_fields"])
def test_cli_track_bad_roads_or_geofence_exits_2(tmp_path, capsys, roads,
                                                 fence, where):
    """A road or geofence line that does not parse to finite numbers
    exits 2 naming path:line, and nothing is written."""
    from foldloc.cli import main
    (tmp_path / "traj.csv").write_text(TRACK_FIXES)
    (tmp_path / "roads.csv").write_text(roads)
    args = ["track", str(tmp_path / "traj.csv"),
            "--roads", str(tmp_path / "roads.csv"), "-o", str(tmp_path / "out")]
    if fence is not None:
        (tmp_path / "fence.csv").write_text(fence)
        args += ["--geofence", str(tmp_path / "fence.csv")]
    assert main(args) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out.snapped.csv").exists()


@pytest.mark.parametrize("row, message", [
    ("1,nan,5", "non-finite"), ("1,20,inf", "non-finite"),
    ("1,20,abc", "could not convert"),
], ids=["x_nan", "y_inf", "y_unparsable"])
def test_cli_track_bad_trajectory_row_exits_2(tmp_path, capsys, row, message):
    """A trajectory position that is not a finite number exits 2 naming
    path:line, and nothing is written."""
    from foldloc.cli import main
    traj = tmp_path / "traj.csv"
    traj.write_text(TRACK_FIXES.replace("1,20,5", row))
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(traj), "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 2
    assert f"{traj}:3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.snapped.csv").exists()
    assert not (tmp_path / "out.alerts.csv").exists()


def test_cli_track_skips_unresolved_fixes(tmp_path):
    from foldloc.cli import main
    traj = tmp_path / "traj.csv"
    traj.write_text(TRACK_FIXES.replace("1,20,5", "1,,"))
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(traj), "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out.snapped.csv")))
    assert [float(r["t"]) for r in rows] == [0.0, 2.0]
    assert [r["reseeded"] for r in rows] == ["0", "0"]


@pytest.mark.parametrize("value", ["1.0", "1.5", "nan", "-1.5"])
@pytest.mark.parametrize("flag", ["--thresh-pss", "--thresh-sss"])
def test_cli_detect_threshold_outside_score_range_exits_2(tmp_path, capsys,
                                                          flag, value):
    """The threshold check runs before any trace is read: a missing trace
    would exit 3."""
    from foldloc.cli import main
    assert main(["detect", str(tmp_path / "missing.bin"), "-o", str(tmp_path),
                 f"{flag}={value}"]) == 2
    assert "thresh_pss and thresh_sss must lie in [-1, 1)" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_eval_and_synth_detect_agree(cli_workdir, tmp_path):
    """eval and synth -> detect run one receiver: the same PCIs and
    delays, and scores equal up to the float32 of the trace files."""
    from foldloc.cli import main
    ini = str(cli_workdir / "sc.ini")
    assert main(["eval", ini, "-o", str(tmp_path / "report.json")]) == 0
    assert main(["synth", ini, "-o", str(tmp_path / "traces")]) == 0
    assert main(["detect", str(tmp_path / "traces" / "manifest.csv"),
                 "-o", str(tmp_path / "dets")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    manifest = list(csv.DictReader(
        open(tmp_path / "dets" / "detections_manifest.csv")))
    assert len(manifest) == len(report["fixes"]) == 2
    for rec, row in zip(report["fixes"], manifest):
        assert int(row["fix"]) == rec["fix"]
        got = list(csv.DictReader(open(row["detections_path"])))
        assert rec["detections"]
        assert [(int(r["pci"]), int(r["delay_samples"])) for r in got] == \
            [(d[0], d[1]) for d in rec["detections"]]
        for r, d in zip(got, rec["detections"]):
            assert abs(float(r["score"]) - d[4]) <= 1e-5


def test_cli_validation_error_exits_2(cli_workdir, tmp_path, capsys):
    from foldloc.cli import main
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO_INI.replace("pci = 101\n", ""))
    r = _run_cli(["synth", str(bad), "-o", str(tmp_path / "x")])
    assert r.returncode == 2
    assert "pci" in r.stderr
    # a misspelt or retired key or section, a non-finite setting and a
    # [DEFAULT] section are rejected, not ignored; the process exit status
    # is main's return value, checked once above
    for old, new, named in (
            ("seed = 5\n", "seed = 5\ntresh_sss = 0.99\n", "'tresh_sss'"),
            ("tx_power_dbm = 46", "tx_powr_dbm = 46", "'tx_powr_dbm'"),
            ("[scenario]", "[scenaro]", "[scenaro]"),
            ("seed = 5\n", "seed = 5\nmode = plain\n", "'mode'"),
            ("seed = 5\n", "seed = 5\nmode = phat\n", "'mode'"),
            ("seed = 5\n", "seed = 5\nthresh_pss = nan\n", "thresh_pss"),
            ("seed = 5\n", "seed = 5\nthresh_sss = -inf\n", "thresh_sss"),
            ("seed = 5\n", "seed = 5\nthresh_sss = 1.0\n", "thresh_sss"),
            ("[scenario]", "[frontend]\nnoise_sigma = nan\n\n[scenario]",
             "[frontend]: non-finite"),
            *(("[scenario]", f"[frontend]\n{key} = 1e6\n\n[scenario]",
               f"[frontend]: unknown key '{key}'")
              for key in ("adc_rate_hz", "lpf_cutoff_hz", "lpf_transition_hz",
                          "lpf_atten_db")),
            ("[scenario]", "[DEFAULT]\ntx_power_dbm = 40\n\n[scenario]",
             "[DEFAULT]")):
        bad.write_text(SCENARIO_INI.replace(old, new))
        assert main(["eval", str(bad), "-o", str(tmp_path / "r.json")]) == 2, new
        assert named in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_synth_nonfinite_cell_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO_INI.replace("x = 0", "x = nan"))
    assert main(["synth", str(bad), "-o", str(tmp_path / "x")]) == 2
    assert "[cell.a]: non-finite value in CellConfig" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("row", ["999,0,0,2.145e9,1.4,46",
                                 "101,0,0,2.145e9,7.0,46",
                                 "101,0,0,1000,1.4,46",
                                 "101,0,0,2.145e9,1.4,inf",
                                 "101,nan,0,2.145e9,1.4,46"],
                         ids=["pci_999", "bandwidth_7", "carrier_1kHz",
                              "tx_power_inf", "x_nan"])
def test_cli_localize_bad_cell_db_row_exits_2(tmp_path, capsys, row):
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    db.write_text(CELL_DB.splitlines()[0] + "\n102,9,9,2.145e9,1.4,46\n"
                  + row + "\n")
    (tmp_path / "manifest.csv").write_text("t,detections_path\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(db), "-o", str(tmp_path / "traj.csv")]) == 2
    assert f"{db}:3: " in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_localize_unknown_cell_db_column_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    db = tmp_path / "cells.csv"
    header, row = CELL_DB.splitlines()
    db.write_text(f"{header},tx_powr_dbm\n{row},40\n")
    (tmp_path / "manifest.csv").write_text("t,detections_path\n")
    assert main(["localize", str(tmp_path / "manifest.csv"),
                 "--cell-db", str(db), "-o", str(tmp_path / "traj.csv")]) == 2
    assert "unknown columns ['tx_powr_dbm']" in capsys.readouterr().err
    assert not (tmp_path / "traj.csv").exists()


def test_cli_data_error_exits_3(tmp_path):
    missing = tmp_path / "missing.bin"
    r = _run_cli(["detect", str(missing), "-o", str(tmp_path)])
    assert r.returncode == 3

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a trace at all")
    r = _run_cli(["detect", str(garbage), "-o", str(tmp_path)])
    assert r.returncode == 3
    assert "error" in r.stderr


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -FS])
def test_cli_detect_bad_trace_rate_exits_3(tmp_path, capsys, rate):
    from foldloc.cli import main
    p = tmp_path / "t.bin"
    traceio.write_trace(p, np.zeros(2 * FRAME_LEN), rate)
    assert main(["detect", str(p), "-o", str(tmp_path)]) == 3
    assert "sample rate" in capsys.readouterr().err
    assert not (tmp_path / "t.detections.csv").exists()


def test_cli_detect_stack_zero_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    manifest = cmd_synth(_single_cell_scenario(), str(tmp_path / "traces"))
    trace = list(csv.DictReader(open(manifest)))[0]["trace_path"]
    assert main(["detect", trace, "-o", str(tmp_path), "--stack", "0"]) == 2
    assert "n_frames" in capsys.readouterr().err
    assert not (tmp_path / "trace_fix_0000.detections.csv").exists()
