"""End-to-end pipeline: synthesis, detection, localization, reporting.

Per-fix traces are synthesized on the complex-baseband fast path (cells on
far-spaced carriers fold independently; pairwise intermodulation lands
outside the detector filter), detected with the hierarchical search (or the
exhaustive phat scan), refined once with `detect.refine` so that
false-positive suppression can compare fitted amplitudes, and localized
from the surviving detections. The template bank is built once per process
and front end. Every random draw comes from a named substream of the
scenario seed, so reports are byte-identical across runs and worker counts.

Synthesis builds each cell's frames of a fix in one `frame_samples` call,
then delays them exactly with one full-length FFT, a phase ramp and one
inverse FFT, in place where scipy.fft allows it.
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.fft

from . import traceio
from .detect import (DETECTOR_RATE_HZ, FRAME_LEN, BankMismatchError, Detection,
                     build_bank, correlate_bank, hierarchical_detect, refine,
                     stack_frames, suppress_false_positives, write_detections_csv)
from .frontend import (SPEED_OF_LIGHT, FrontEndConfig, fold_baseband,
                       path_amplitude, received_power_dbm)
from .lte import Pci, frame_samples
from .locate import (InsufficientAnchorsError, TowerObservation, solve_tdoa,
                     trilaterate_ratio)
from .scenario import Scenario, scenario_cell_db, substream


@lru_cache(maxsize=4)
def _bank_for(fe: FrontEndConfig, cache_dir: str | None = None):
    """Template bank of a noise-free front end, built once per process.

    cache_dir None falls back to FOLDLOC_CACHE_DIR inside build_bank.
    """
    return build_bank(fe, cache_dir)


def _delay_ramp(n: int, delay_samples: float, scale: float) -> np.ndarray:
    """scale * exp(-2j*pi*fftfreq(n)*delay_samples): a delay as a phase ramp.

    Bin k < n/2 gets w**k with w = exp(-2j*pi*delay_samples/n), written as
    the outer product of ~sqrt(n) coarse steps w**(m*a) and fine steps w**b
    instead of n complex exps; negative-frequency bins k >= n/2 stand for
    k - n and carry the extra factor w**-n.
    """
    m = int(np.ceil(np.sqrt(n)))
    step = -2j * np.pi * delay_samples / n
    coarse = scale * np.exp(step * m * np.arange(-(-n // m)))
    fine = np.exp(step * np.arange(m))
    ramp = np.multiply.outer(coarse, fine).ravel()[:n]
    ramp[(n + 1) // 2:] *= np.exp(-step * n)
    return ramp


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
    quiet = replace(sc.front_end, noise_sigma=0.0)

    for ci, cell in enumerate(sc.cells):
        if received_power_dbm(cell, rx) < sc.front_end.sensitivity_floor_dbm:
            continue
        cfg = cell.frame_cfg
        rng = substream(sc.rng_seed, "payload", fix_idx, ci)
        bb = frame_samples(cfg, cell.pci, "random_qpsk", rng, n_frames=n)
        d = float(np.hypot(*(np.asarray(cell.position) - rx)))
        delay_s = d / SPEED_OF_LIGHT + cell.frame_time_origin_s
        a_rx = path_amplitude(d, cell.carrier_hz) * \
            10.0 ** ((cell.tx_power_dbm - 30.0) / 20.0)
        # integer plus fractional delay as one frequency-domain phase ramp,
        # with the receive amplitude folded into it; scipy.fft may reuse bb
        # and plans long transforms faster than numpy.fft, to the same bits
        bb = scipy.fft.fft(bb, overwrite_x=True)
        bb *= _delay_ramp(bb.size, delay_s * cfg.sample_rate_hz, a_rx)
        bb = scipy.fft.ifft(bb, overwrite_x=True)
        total += fold_baseband(bb, cfg.sample_rate_hz, quiet)

    if sc.front_end.noise_sigma > 0:
        rng = substream(sc.rng_seed, "noise", fix_idx)
        total = total + rng.normal(0.0, sc.front_end.noise_sigma, total.size)
    return total


def detect_trace(trace: np.ndarray, bank, thresh_pss: float = 0.3,
                 thresh_sss: float = 0.5, n_stack: int | None = None,
                 mode: str = "plain") -> list[Detection]:
    """Stack, detect, refine, and suppress false positives on one trace.

    plain mode runs the hierarchical two-stage search. phat mode correlates
    the full bank exhaustively with whitened-phase scoring (slower, robust
    to narrowband interference) and thresholds per-PCI peaks.
    """
    n_stack = n_stack or max(1, trace.size // FRAME_LEN)
    stacked = stack_frames(trace, n_stack)
    if mode == "plain":
        dets = hierarchical_detect(stacked, bank, thresh_pss, thresh_sss)
    elif mode == "phat":
        scores = correlate_bank(stacked, bank, mode="phat")
        lags = np.argmax(scores, axis=1)
        best = scores[np.arange(504), lags]
        dets = [Detection(Pci(int(p)), int(lags[p]), float(best[p]))
                for p in np.flatnonzero(best > thresh_sss)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return suppress_false_positives(refine(stacked, bank, dets))


def _observations(dets: list[Detection], db, bank, prev_fix=None):
    """Map detections to database towers, building solver observations.

    Fitted folded amplitude scales as (received amplitude)^2 times the
    template norm; its square root, corrected for carrier frequency and
    transmit power from the database row, is proportional to 1/distance.
    """
    obs, skipped = [], []
    for det in dets:
        row = db.resolve(det.pci.value, prev_fix)
        if row is None:
            skipped.append(det.pci.value)
            continue
        _, cx, cy, carrier, _, dbm = row
        a_rx = np.sqrt(max(det.amplitude, 0.0) / bank.norms[det.pci.value])
        amp = a_rx * carrier / np.sqrt(10.0 ** ((dbm - 30.0) / 10.0))
        obs.append(TowerObservation(
            position=(cx, cy), amplitude=float(amp),
            toa_samples=det.delay_samples + det.subsample_offset,
            pci=det.pci))
    return obs, skipped


def run_fix(sc: Scenario, fix_idx: int) -> dict:
    """Synthesize, detect, and localize one fix; returns a JSON-able record."""
    t, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    trace = synth_fix_trace(sc, fix_idx)
    bank = _bank_for(replace(sc.front_end, noise_sigma=0.0))
    dets = detect_trace(trace, bank, sc.thresh_pss, sc.thresh_sss,
                        sc.n_frames_per_fix, sc.correlation_mode)
    truth = sorted(c.pci.value for c in sc.cells
                   if received_power_dbm(c, rx) >= sc.front_end.sensitivity_floor_dbm)

    db = scenario_cell_db(sc)
    obs, skipped = _observations(dets, db, bank)
    record = {
        "fix": fix_idx,
        "t": t,
        "true_position": [x, y],
        "true_pcis": truth,
        "detections": [[d.pci.value, d.delay_samples,
                        round(d.subsample_offset, 9), round(d.amplitude, 12),
                        round(d.score, 9)] for d in dets],
        "skipped_pcis": skipped,
        "estimate": None,
        "error_m": None,
        "n_towers": len(obs),
        "converged": None,
    }
    if len(obs) >= 3:
        try:
            if sc.solver == "tdoa":
                est = solve_tdoa(obs, DETECTOR_RATE_HZ)
            else:
                est = trilaterate_ratio(obs)
            record["estimate"] = [round(est.position[0], 9),
                                  round(est.position[1], 9)]
            record["error_m"] = round(float(np.hypot(est.position[0] - x,
                                                     est.position[1] - y)), 9)
            record["converged"] = est.converged
        except InsufficientAnchorsError:
            pass
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
        _bank_for(replace(sc.front_end, noise_sigma=0.0))   # warm before fork
        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(_run_fix_task, [(sc, i) for i in range(n)]))
    records.sort(key=lambda r: r["fix"])
    summary = {
        "n_cells": len(sc.cells),
        "n_fixes": n,
        "seed": sc.rng_seed,
        "n_frames_per_fix": sc.n_frames_per_fix,
        "solver": sc.solver,
        "mode": sc.correlation_mode,
    }
    return RunReport(summary, records, compute_metrics(records))


def run_urban_sim(towers, n_fixes: int = 500, timing_noise_samples: float = 0.1,
                  epochs_per_fix: int = 10, sample_rate_hz: float = DETECTOR_RATE_HZ,
                  seed: int = 0, region=None) -> dict:
    """Observation-level localization study at a given tower geometry.

    Receiver positions are drawn uniformly in `region` (default: the central
    70% of the tower bounding box). Each fix observes per-tower arrival
    times corrupted by Gaussian timing noise of the given sample sigma,
    averaged over epochs_per_fix independent sync epochs, then solved by
    TDOA. Returns per-fix errors and percentiles.
    """
    towers = np.asarray(towers, dtype=np.float64)
    lo = towers.min(axis=0)
    hi = towers.max(axis=0)
    if region is None:
        mid, span = (lo + hi) / 2.0, (hi - lo) / 2.0
        region = (mid - 0.7 * span, mid + 0.7 * span)
    m_per_sample = SPEED_OF_LIGHT / sample_rate_hz
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
        est = solve_tdoa(obs, sample_rate_hz)
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
            traceio.write_trace(path, trace, sc.front_end.adc_rate_hz)
            truth = ";".join(str(c.pci.value) for c in sc.cells
                             if received_power_dbm(c, (x, y))
                             >= sc.front_end.sensitivity_floor_dbm)
            w.writerow([i, path, t, x, y, truth])
    return manifest


def cmd_detect(trace_path: str, fe: FrontEndConfig, out_csv: str,
               thresh_pss: float = 0.3, thresh_sss: float = 0.5,
               n_stack: int | None = None, mode: str = "plain",
               cache_dir: str | None = None) -> list[Detection]:
    samples, rate = traceio.read_trace(trace_path)
    if abs(rate - fe.adc_rate_hz) > 1e-6:
        raise BankMismatchError(
            f"trace rate {rate:g} does not match front end {fe.adc_rate_hz:g}")
    quiet = replace(fe, noise_sigma=0.0)
    # lru_cache tells _bank_for(quiet) and _bank_for(quiet, None) apart;
    # without a cache dir, share the entry of run_fix and cmd_localize
    bank = _bank_for(quiet, cache_dir) if cache_dir else _bank_for(quiet)
    dets = detect_trace(samples, bank, thresh_pss, thresh_sss, n_stack, mode)
    write_detections_csv(out_csv, dets)
    return dets


def cmd_localize(detections_by_fix, db, method: str = "tdoa",
                 sample_rate_hz: float = DETECTOR_RATE_HZ,
                 fe: FrontEndConfig | None = None):
    """Solve one position per fix from detection lists; yields CSV rows.

    Rows are (t, x_est, y_est, objective, n_towers); unresolvable fixes
    (under three matched towers) yield empty estimate fields.
    """
    bank = _bank_for(replace(fe or FrontEndConfig(), noise_sigma=0.0))
    rows = []
    prev = None
    for t, dets in detections_by_fix:
        obs, _ = _observations(dets, db, bank, prev_fix=prev)
        if len(obs) < 3:
            rows.append((t, "", "", "", len(obs)))
            continue
        est = solve_tdoa(obs, sample_rate_hz) if method == "tdoa" \
            else trilaterate_ratio(obs)
        rows.append((t, f"{est.position[0]:.6f}", f"{est.position[1]:.6f}",
                     f"{est.objective_value:.6e}", len(obs)))
        prev = est.position
    return rows
