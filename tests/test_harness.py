"""End-to-end harness: synthesis, detection, localization, CLI plumbing."""
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import fftconvolve

import foldloc
from foldloc import traceio
from foldloc.amplitude import estimate_subsample, fit_amplitude
from foldloc.detect import (FRAME_LEN, PSS_TEMPLATE_LEN, TEMPLATE_LEN,
                            TEMPLATE_START, BankMismatchError, Detection,
                            _stage1_candidates, correlate, hierarchical_detect,
                            stack_frames, suppress_false_positives)
from foldloc.frontend import (SPEED_OF_LIGHT, CellConfig, FrontEndConfig,
                              design_lowpass, path_amplitude,
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
    from dataclasses import replace
    c = synth_fix_trace(replace(sc, rng_seed=6), 0)
    assert not np.array_equal(a, c)


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
        dec = int(round(cfg.sample_rate_hz / fe.adc_rate_hz))
        if dec > 1:
            taps = design_lowpass(cfg.sample_rate_hz, fe)
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


def _wideband_scenario():
    cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                        frame_cfg=FrameConfig.from_bandwidth(bw), position=pos,
                        tx_power_dbm=46.0, frame_time_origin_s=o / FS)
             for p, bw, f, pos, o in ((101, 20.0, 2.115e9, (800.0, 0.0), 0),
                                      (202, 10.0, 2.145e9, (0.0, 1000.0), 1500),
                                      (303, 5.0, 2.175e9, (-884.0, -884.0), 3000))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=[(0.0, 10.0, -20.0)], rng_seed=3,
                    n_frames_per_fix=2, solver="ratio")


@pytest.mark.parametrize("make", [
    lambda: _s5_scenario((0, 1500, 3000, 4500, 6000)),
    lambda: _s5_scenario((0,) * 5),
    _wideband_scenario,
], ids=["s5_offset", "s5_synchronized", "wideband_20_10_5"])
def test_synth_matches_frame_by_frame_reference(make):
    sc = make()
    for i in range(len(sc.trajectory)):
        want = _seed_synth_fix_trace(sc, i)
        got = synth_fix_trace(sc, i)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


# ------------------------------------------------------------- detection


def _seed_stage2(stacked, bank, thresh_pss, thresh_sss, candidate_window=3):
    """Reference stage 2: one matrix-vector product per candidate lag; a
    PCI keeps the first lag with its best score above thresh_sss."""
    n = stacked.size
    dets = {}
    for pk in _stage1_candidates(stacked, bank, thresh_pss):
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
    for d in dets:
        tpl = bank.samples[d.pci.value]
        d.amplitude = fit_amplitude(stacked, tpl, d.delay_samples).amplitude
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


def test_phat_detect_matches_per_template_reference(bank):
    sc = _s5_scenario((0, 1500, 3000, 4500, 6000))
    trace = synth_fix_trace(sc, 0)
    stacked = stack_frames(trace, sc.n_frames_per_fix)
    # phat peaks reach only about 0.055 under random payload; this threshold
    # keeps seven close-scoring PCIs
    thresh = 0.045
    raw = []
    for p in range(504):
        scores = correlate(stacked, bank.samples[p], "phat")
        lag = int(np.argmax(scores))
        if scores[lag] > thresh:
            raw.append(Detection(Pci(p), lag, float(scores[lag])))
    assert len(raw) == 7
    want = suppress_false_positives(_seed_enrich(stacked, bank, raw))
    got = detect_trace(trace, bank, thresh_sss=thresh, n_stack=2, mode="phat")
    _assert_same_detections(got, want)


def test_detect_single_cell_at_geometric_delay(bank):
    sc = _single_cell_scenario()
    dets = detect_trace(synth_fix_trace(sc, 0), bank, n_stack=2)
    assert len(dets) == 1
    d = dets[0]
    assert d.pci.value == 101
    assert d.delay_samples == TEMPLATE_START + 3
    assert abs(d.subsample_offset) < 0.3
    assert d.amplitude > 0


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
        cmd_detect(str(p), FrontEndConfig(), str(tmp_path / "d.csv"))


def test_cmd_localize_rows(tmp_path):
    # three synchronized towers, detections at exact geometric delays
    towers = [(10, 0.0, 0.0), (11, 2000.0, 0.0), (12, 1000.0, 1732.0)]
    db = CellDatabase(rows=[(p, x, y, 2.145e9, 1.4, 46.0)
                            for p, x, y in towers])
    truth = np.array([700.0, 500.0])
    dets = []
    for p, x, y in towers:
        d_m = float(np.hypot(x - truth[0], y - truth[1]))
        delay = d_m / 156.25
        dets.append(Detection(Pci(p), int(delay), 0.9, 1.0,
                              delay - int(delay)))
    rows = cmd_localize([(0.0, dets), (1.0, dets[:2])], db, "tdoa", FS)
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


def _run_cli(args, env_extra=None):
    env = dict(os.environ)
    # the child imports the same foldloc as this process, installed or not
    src = os.path.dirname(os.path.dirname(foldloc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "foldloc", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "sc.ini").write_text(SCENARIO_INI)
    (d / "cells.csv").write_text(CELL_DB)
    (d / "roads.csv").write_text(ROADS)
    return d


def test_cli_synth_detect_chain(cli_workdir, shared_cache):
    env = {"FOLDLOC_CACHE_DIR": shared_cache}
    r = _run_cli(["synth", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "traces")], env)
    assert r.returncode == 0, r.stderr
    manifest = cli_workdir / "traces" / "manifest.csv"
    assert manifest.exists()

    r = _run_cli(["detect", str(manifest),
                  "-o", str(cli_workdir / "dets")], env)
    assert r.returncode == 0, r.stderr
    det_manifest = cli_workdir / "dets" / "detections_manifest.csv"
    assert det_manifest.exists()
    first = list(csv.DictReader(open(det_manifest)))[0]
    det_rows = list(csv.DictReader(open(first["detections_path"])))
    assert det_rows[0]["pci"] == "101"

    r = _run_cli(["localize", str(det_manifest),
                  "--cell-db", str(cli_workdir / "cells.csv"),
                  "-o", str(cli_workdir / "traj.csv")], env)
    assert r.returncode == 0, r.stderr

    r = _run_cli(["track", str(cli_workdir / "traj.csv"),
                  "--roads", str(cli_workdir / "roads.csv"),
                  "-o", str(cli_workdir / "out")], env)
    assert r.returncode == 0, r.stderr
    assert (cli_workdir / "out.snapped.csv").exists()
    assert (cli_workdir / "out.alerts.csv").exists()


def test_cli_eval(cli_workdir, shared_cache):
    r = _run_cli(["eval", str(cli_workdir / "sc.ini"),
                  "-o", str(cli_workdir / "report.json")],
                 {"FOLDLOC_CACHE_DIR": shared_cache})
    assert r.returncode == 0, r.stderr
    report = json.loads((cli_workdir / "report.json").read_text())
    assert report["metrics"]["recall"] == 1.0


def test_cli_detect_builds_bank_once_per_process(tmp_path, monkeypatch,
                                                shared_cache):
    from dataclasses import replace

    from foldloc import harness
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
        assert main(["detect", manifest, "-o", str(tmp_path / "dets"),
                     "--cache-dir", shared_cache]) == 0
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


def test_cli_track_trajectory_without_x_est_exits_2(tmp_path, capsys):
    from foldloc.cli import main
    (tmp_path / "traj.csv").write_text("t,y_est\n0.0,1.0\n")
    (tmp_path / "roads.csv").write_text(ROADS)
    assert main(["track", str(tmp_path / "traj.csv"),
                 "--roads", str(tmp_path / "roads.csv"),
                 "-o", str(tmp_path / "out")]) == 2
    assert "x_est" in capsys.readouterr().err


def test_cli_validation_error_exits_2(cli_workdir, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(SCENARIO_INI.replace("pci = 101\n", ""))
    r = _run_cli(["synth", str(bad), "-o", str(tmp_path / "x")])
    assert r.returncode == 2
    assert "pci" in r.stderr


def test_cli_data_error_exits_3(tmp_path):
    missing = tmp_path / "missing.bin"
    r = _run_cli(["detect", str(missing), "-o", str(tmp_path)])
    assert r.returncode == 3

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a trace at all")
    r = _run_cli(["detect", str(garbage), "-o", str(tmp_path)])
    assert r.returncode == 3
    assert "error" in r.stderr
