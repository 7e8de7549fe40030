"""End-to-end pipeline: synthesis, detection, localization, reporting.

Per-fix traces are synthesized on the complex-baseband fast path (cells on
far-spaced carriers fold independently; pairwise intermodulation lands
outside the detector filter), detected with the hierarchical search,
refined once with `detect.refine`, which gives each detection its received
power and suppresses false positives by it, and localized from the
surviving detections; localization needs no bank. The template bank is
built once per process and front end (noise is no part of a front end's
identity), with no disk cache. Every random draw comes from a named
substream of the scenario seed, so reports are byte-identical across runs
and worker counts.

Synthesis builds each cell's frames of a fix in one `frame_samples` call,
then delays them exactly with `_delay`, a four-step DFT (Bailey 1990): its
passes are batched scipy.fft transforms along the two axes of an
(n1, FRAME_LEN) view of the trace, so no full-length transform runs and no
N-sized scratch buffer is taken. Cells are synthesized one after another;
within a cell, frame building, the delay and the fold each use the
process's CPU share once the cell holds lte._PARALLEL_MIN = 2**19 samples
(the transforms through scipy's own threads, the rest through
`lte._run_blocks`), and one thread below that. `run_eval` with several
workers gives each worker process an equal share of the CPUs, at least
one, so the pool never oversubscribes them. Helper threads run only
private code: every call of a public function stays on the thread that
synthesizes the fix. The output does not depend on the thread count.
`synth_fix_trace` is the only place that adds detector noise: white
Gaussian noise of the front end's noise_sigma on the summed detector-rate
trace, from the fix's own "noise" substream.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from . import traceio
from .detect import (FRAME_LEN, THRESH_PSS, THRESH_SSS, BankMismatchError,
                     Detection, build_bank, hierarchical_detect, refine,
                     stack_frames)
from .frontend import (DETECTOR_RATE_HZ, SPEED_OF_LIGHT, FrontEndConfig,
                       fold_baseband, path_amplitude, received_power_dbm)
from .lte import Pci, _run_blocks, _share_cpus, _threads, frame_samples
from .locate import SOLVERS, TowerObservation, solve_tdoa
from .scenario import Scenario, ScenarioError, read_csv_rows, scenario_cell_db, \
    substream


@lru_cache(maxsize=4)
def _bank_for(fe: FrontEndConfig):
    """The detector's template bank, built once per process; fe is only
    the cache key, and noise no part of it. Nothing is kept on disk."""
    return build_bank()


def _twiddle(a: np.ndarray, sign: int, row: np.ndarray | None = None) -> None:
    """a[k1, b] *= row[k1, 0] * exp(sign*2j*pi*k1*b/N) in place, N = a.size,
    with row 1 when None.

    With b = 160*q + r (FRAME_LEN = 120*160) the factor is the product of
    an (n1, 120) and an (n1, 160) table, so no N-sized table is made. Row
    blocks run on the caller's share of the CPUs (_run_blocks).
    """
    def rows(lo, hi):
        v = a[lo:hi].reshape(hi - lo, FRAME_LEN // 160, 160)
        step = sign * 2j * np.pi / a.size * np.arange(lo, hi)[:, None]
        q = np.exp(step * 160 * np.arange(FRAME_LEN // 160))
        v *= (q if row is None else row[lo:hi] * q)[:, :, None]
        v *= np.exp(step * np.arange(160))[:, None, :]

    _run_blocks(rows, a.shape[0], a.size)


def _delay(bb: np.ndarray, delay_samples: float, scale: float) -> np.ndarray:
    """scale * ifft(fft(bb) * exp(-2j*pi*fftfreq(N)*delay_samples)): bb
    delayed exactly, circularly and band-limited; bb may be overwritten.

    bb, N samples in whole 10 ms frames, is viewed as an (n1, FRAME_LEN)
    array. n1-point transforms along axis 0, a twiddle and FRAME_LEN-point
    transforms along axis 1 leave bin k1 + n1*k2 at [k1, k2], so the ramp
    is a row factor (with scale) times a column factor; k2 >= FRAME_LEN/2
    holds the negative frequencies, as in fftfreq. The inverse runs the
    same steps backwards. The transforms use scipy's own threads, the
    twiddles and the column factor row blocks (_run_blocks); below
    lte._PARALLEL_MIN samples everything runs on one thread.
    """
    n1 = bb.size // FRAME_LEN
    threads = _threads(bb.size)
    step = -2j * np.pi * delay_samples / bb.size
    a = scipy.fft.fft(bb.reshape(n1, FRAME_LEN), axis=0, overwrite_x=True,
                      workers=threads)
    _twiddle(a, -1, scale * np.exp(step * np.arange(n1))[:, None])
    a = scipy.fft.fft(a, axis=1, overwrite_x=True, workers=threads)
    ramp = np.exp(step * n1 * scipy.fft.fftfreq(FRAME_LEN, 1.0 / FRAME_LEN))

    def columns(lo, hi):
        a[lo:hi] *= ramp

    _run_blocks(columns, n1, a.size)
    a = scipy.fft.ifft(a, axis=1, overwrite_x=True, workers=threads)
    _twiddle(a, 1)
    return scipy.fft.ifft(a, axis=0, overwrite_x=True, workers=threads).ravel()


def _heard_cells(sc: Scenario, rx) -> list:
    """(index, cell) of every cell received at rx at or above the front
    end's sensitivity floor; the others are neither synthesized nor truth."""
    floor = sc.front_end.sensitivity_floor_dbm
    return [(ci, c) for ci, c in enumerate(sc.cells)
            if received_power_dbm(c, rx) >= floor]


def synth_fix_trace(sc: Scenario, fix_idx: int) -> np.ndarray:
    """Detector-rate trace for one fix: delayed, scaled, folded cells + noise.

    Each cell's n frames are one batched `frame_samples` call; its payload
    comes from substream(seed, "payload", fix, cell) as if drawn frame by
    frame.
    """
    _, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    n = sc.n_frames_per_fix
    total = np.zeros(n * FRAME_LEN)

    for ci, cell in _heard_cells(sc, rx):
        cfg = cell.frame_cfg
        rng = substream(sc.rng_seed, "payload", fix_idx, ci)
        bb = frame_samples(cfg, cell.pci, "random_qpsk", rng, n_frames=n)
        d = float(np.hypot(*(np.asarray(cell.position) - rx)))
        delay_s = d / SPEED_OF_LIGHT + cell.frame_time_origin_s
        a_rx = path_amplitude(d, cell.carrier_hz) * \
            10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
        bb = _delay(bb, delay_s * cfg.sample_rate_hz, a_rx)
        total += fold_baseband(bb, cfg.sample_rate_hz)

    if sc.front_end.noise_sigma > 0:
        rng = substream(sc.rng_seed, "noise", fix_idx)
        total = total + rng.normal(0.0, sc.front_end.noise_sigma, total.size)
    return total


def detect_trace(trace: np.ndarray, bank, thresh_pss: float = THRESH_PSS,
                 thresh_sss: float = THRESH_SSS, n_stack: int | None = None,
                 mode: str = "plain") -> list[Detection]:
    """Stack, detect with the hierarchical search, then refine one trace.

    n_stack None stacks every whole frame of the trace. mode has the one
    value "plain" and raises otherwise; it stays only because the
    benchmark's workloads pass Scenario.correlation_mode positionally.
    """
    if mode != "plain":
        raise ValueError(f"unknown mode {mode!r}")
    if n_stack is None:
        n_stack = max(1, trace.size // FRAME_LEN)
    stacked = stack_frames(trace, n_stack)
    return refine(stacked, bank,
                  hierarchical_detect(stacked, bank, thresh_pss, thresh_sss))


def _observations(dets: list[Detection], db, prev_fix=None):
    """Map detections to database towers, building solver observations.

    A detection's amplitude is already the received amplitude squared
    (`refine` divided it by the template norm); its square root, corrected
    for carrier frequency and transmit power from the database cell, is
    proportional to 1/distance.
    """
    obs, skipped = [], []
    for det in dets:
        cell = db.resolve(det.pci.value, prev_fix)
        if cell is None:
            skipped.append(det.pci.value)
            continue
        amp = np.sqrt(max(det.amplitude, 0.0)) * cell.carrier_hz / \
            np.sqrt(10.0 ** ((cell.tx_power_dbm - 30.0) / 10.0))
        obs.append(TowerObservation(
            position=cell.position, amplitude=float(amp),
            toa_samples=det.delay_samples + det.subsample_offset))
    return obs, skipped


def run_fix(sc: Scenario, fix_idx: int) -> dict:
    """Synthesize, detect, and localize one fix; returns a JSON-able record."""
    t, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    trace = synth_fix_trace(sc, fix_idx)
    dets = detect_trace(trace, _bank_for(sc.front_end), sc.thresh_pss,
                        sc.thresh_sss, sc.n_frames_per_fix)
    truth = sorted(c.pci.value for _, c in _heard_cells(sc, rx))

    obs, skipped = _observations(dets, scenario_cell_db(sc))
    record = {
        "fix": fix_idx,
        "t": t,
        "true_position": [x, y],
        "true_pcis": truth,
        "detections": [[d.pci.value, d.delay_samples,
                        round(d.subsample_offset, 9), float(f"{d.amplitude:.9g}"),
                        round(d.score, 9)] for d in dets],
        "skipped_pcis": skipped,
        "estimate": None,
        "error_m": None,
        "n_towers": len(obs),
        "converged": None,
    }
    if len(obs) >= 3:
        est = SOLVERS[sc.solver](obs)
        record["estimate"] = [round(est.position[0], 9),
                              round(est.position[1], 9)]
        record["error_m"] = round(float(np.hypot(est.position[0] - x,
                                                 est.position[1] - y)), 9)
        record["converged"] = est.converged
    return record


@dataclass
class RunReport:
    scenario_summary: dict
    records: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"scenario": self.scenario_summary,
                           "fixes": self.records,
                           "metrics": self.metrics},
                          sort_keys=True, separators=(",", ":"))


def compute_metrics(records: list[dict]) -> dict:
    """Detection precision/recall and localization percentiles, recomputable
    from the per-fix records alone."""
    tp = fp = fn = 0
    errors = []
    for r in records:
        got = {d[0] for d in r["detections"]}
        want = set(r["true_pcis"])
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)
        if r["error_m"] is not None:
            errors.append(r["error_m"])
    metrics = {
        "tp": tp, "fp": fp, "fn": fn,
        "precision": round(tp / (tp + fp), 9) if tp + fp else None,
        "recall": round(tp / (tp + fn), 9) if tp + fn else None,
        "n_resolved": len(errors),
    }
    if errors:
        e = np.array(errors)
        metrics["error_p50_m"] = round(float(np.percentile(e, 50)), 9)
        metrics["error_p90_m"] = round(float(np.percentile(e, 90)), 9)
    return metrics


def _run_fix_task(args):
    sc, i = args
    return run_fix(sc, i)


def run_eval(sc: Scenario, workers: int = 1) -> RunReport:
    """Full pipeline over the scenario trajectory; deterministic in workers."""
    n = len(sc.trajectory)
    if workers <= 1:
        records = [run_fix(sc, i) for i in range(n)]
    else:
        _bank_for(sc.front_end)   # warm before fork
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_cpus,
                                 initargs=(workers,)) as ex:
            records = list(ex.map(_run_fix_task, [(sc, i) for i in range(n)]))
    records.sort(key=lambda r: r["fix"])
    summary = {
        "n_cells": len(sc.cells),
        "n_fixes": n,
        "seed": sc.rng_seed,
        "n_frames_per_fix": sc.n_frames_per_fix,
        "solver": sc.solver,
    }
    return RunReport(summary, records, compute_metrics(records))


def run_urban_sim(towers, n_fixes: int = 500, timing_noise_samples: float = 0.1,
                  epochs_per_fix: int = 10, seed: int = 0) -> dict:
    """Observation-level localization study at a given tower geometry.

    Receiver positions are drawn uniformly in the central 70% of the tower
    bounding box. Each fix observes per-tower arrival times, in detector
    samples, corrupted by Gaussian timing noise of the given sample sigma,
    averaged over epochs_per_fix independent sync epochs, then solved by
    TDOA. Returns per-fix errors and percentiles.
    """
    towers = np.asarray(towers, dtype=np.float64)
    lo = towers.min(axis=0)
    hi = towers.max(axis=0)
    mid, span = (lo + hi) / 2.0, (hi - lo) / 2.0
    region = (mid - 0.7 * span, mid + 0.7 * span)
    m_per_sample = SPEED_OF_LIGHT / DETECTOR_RATE_HZ
    errors = []
    for i in range(n_fixes):
        rng_p = substream(seed, "scene", i)
        p = rng_p.uniform(region[0], region[1])
        d = np.hypot(towers[:, 0] - p[0], towers[:, 1] - p[1])
        rng_t = substream(seed, "timing", i)
        toas = d / m_per_sample + rng_t.normal(
            0.0, timing_noise_samples, (epochs_per_fix, towers.shape[0]))
        toa = toas.mean(axis=0)
        obs = [TowerObservation(position=tuple(towers[k]), toa_samples=float(toa[k]))
               for k in range(towers.shape[0])]
        est = solve_tdoa(obs)
        errors.append(float(np.hypot(est.position[0] - p[0],
                                     est.position[1] - p[1])))
    e = np.array(errors)
    return {
        "errors_m": errors,
        "p50_m": float(np.percentile(e, 50)),
        "p90_m": float(np.percentile(e, 90)),
        "max_m": float(e.max()),
    }


# file plumbing for the CLI


def cmd_synth(sc: Scenario, outdir: str) -> str:
    """Write per-fix traces and a manifest; returns the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    manifest = os.path.join(outdir, "manifest.csv")
    with open(manifest, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["fix", "trace_path", "t", "x_true", "y_true", "true_pcis"])
        for i, (t, x, y) in enumerate(sc.trajectory):
            trace = synth_fix_trace(sc, i)
            path = os.path.join(outdir, f"trace_fix_{i:04d}.bin")
            traceio.write_trace(path, trace, DETECTOR_RATE_HZ)
            truth = ";".join(str(c.pci.value) for _, c in _heard_cells(sc, (x, y)))
            w.writerow([i, path, t, x, y, truth])
    return manifest


def cmd_detect(trace_path: str, out_csv: str, thresh_pss: float = THRESH_PSS,
               thresh_sss: float = THRESH_SSS,
               n_stack: int | None = None) -> list[Detection]:
    samples, rate = traceio.read_trace(trace_path)
    if abs(rate - DETECTOR_RATE_HZ) > 1e-6:
        raise BankMismatchError(
            f"trace rate {rate:g} is not the detector rate {DETECTOR_RATE_HZ:g}")
    dets = detect_trace(samples, _bank_for(FrontEndConfig()), thresh_pss,
                        thresh_sss, n_stack)
    write_detections_csv(out_csv, dets)
    return dets


DETECTION_COLUMNS = ("pci", "delay_samples", "subsample_offset", "amplitude",
                     "score")


def write_detections_csv(path, detections: list[Detection]) -> None:
    with open(path, "w") as f:
        f.write(",".join(DETECTION_COLUMNS) + "\n")
        for d in detections:
            f.write(f"{d.pci.value},{d.delay_samples},{d.subsample_offset:.6f},"
                    f"{d.amplitude:.6g},{d.score:.6f}\n")


def read_detections_csv(path) -> list[Detection]:
    """Detections of one CSV; a malformed or non-finite value raises
    ScenarioError naming path:line."""
    out = []
    for ln, r in read_csv_rows(path, DETECTION_COLUMNS):
        try:
            tau, amp, score = (float(r[c]) for c in DETECTION_COLUMNS[2:])
            if not np.isfinite([tau, amp, score]).all():
                raise ValueError("non-finite subsample_offset, amplitude or score")
            out.append(Detection(Pci(int(r["pci"])), int(r["delay_samples"]),
                                 score, amp, tau))
        except ValueError as e:
            raise ScenarioError(f"{path}:{ln}: {e}") from None
    return out


def cmd_localize(detections_by_fix, db, method: str = "tdoa"):
    """Solve one position per fix from detection lists; yields CSV rows.

    Detection delays count detector samples at DETECTOR_RATE_HZ, and
    amplitudes are received powers, already divided by the template norm
    in `refine`, so no bank is needed. Rows are (t, x_est, y_est,
    objective, n_towers); unresolvable fixes (under three matched towers)
    yield empty estimate fields.
    """
    rows = []
    prev = None
    for t, dets in detections_by_fix:
        obs, _ = _observations(dets, db, prev_fix=prev)
        if len(obs) < 3:
            rows.append((t, "", "", "", len(obs)))
            continue
        est = SOLVERS[method](obs)
        rows.append((t, f"{est.position[0]:.6f}", f"{est.position[1]:.6f}",
                     f"{est.objective_value:.6e}", len(obs)))
        prev = est.position
    return rows
