"""End-to-end pipeline: synthesis, detection, localization, reporting.

Per-fix traces are synthesized on the complex-baseband fast path (cells on
far-spaced carriers fold independently; pairwise intermodulation lands
outside the detector filter), detected with the hierarchical search,
refined once with `detect.refine`, which gives each detection its received
power and suppresses false positives by it, and localized from the
surviving detections; localization needs no bank. The template bank is
built once per process, with no disk cache. Every random draw comes from a
named substream of the scenario seed, so reports are byte-identical across
runs.

Synthesis builds each cell's frames of a fix with `lte._frames`, then
delays them exactly with a four-step DFT (Bailey 1990) in
`_delay_stacked`: its passes are batched numpy.fft transforms along the
two axes of an (n1, FRAME_LEN) view of the trace, each written back into
that view (`out=`), so no full-length transform runs and no N-sized
scratch buffer is taken. It finishes with the square of the delayed cell,
averaged over the frames that fold into each output frame, straight from
the row spectra by Parseval's theorem, and `lowpass_decimate` filters it:
at one frame per output frame that is the full trace `synth_fix_trace`
returns for `cmd_synth`, and at the fix's n frames the one stacked frame
`synth_fix_stack` returns for `run_fix` to detect on, whose FIR filters
one frame-folded square. The threads work one queue: a fix's cells, and
the pieces of a large cell's passes (`lte._overlap` and `lte._split`, the
threading policy in `lte`'s docstring). A cell's whole synthesis, payload
draw, frame build and delay, is one job, `_synth_cell`, that the helper
threads and the waiting caller work, and a cell of at least _SPLIT_MIN
samples queues the pieces of each delay pass, each a Future as its job
is, for the threads idle on the queue; the cell's own thread works each
piece no other thread took. The calling thread only hands out the cells,
each with its own payload Generator, filters each result and folds it
into the total in cell order. `run_eval` runs its fixes one after
another in the calling process.
`_synth` is the only place that adds detector noise: white Gaussian noise
of the front end's noise_sigma on the summed detector-rate trace, from the
fix's own "noise" substream; the stacked frame adds the same draw, stacked.
`cmd_synth` and `cmd_localize` serve the CLI and the benchmark alike.
"""
from __future__ import annotations

import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import traceio
from .detect import (FRAME_LEN, HALF_FRAME, THRESH_PSS, THRESH_SSS,
                     Detection, build_bank, hierarchical_detect, refine,
                     stack_frames)
from .frontend import (DETECTOR_RATE_HZ, SENSITIVITY_FLOOR_DBM,
                       SPEED_OF_LIGHT, FrontEndConfig, _fir_reach, arrival,
                       lowpass_decimate)
from .lte import _frames, _overlap, _split
from .locate import SOLVERS, TowerObservation, solve_tdoa
from .scenario import Scenario, scenario_cell_db, substream, write_csv_rows


@lru_cache(maxsize=4)
def _bank_for(fe: FrontEndConfig):
    """The detector's template bank, built once per process. No field of
    fe takes part in its equality, so every front end shares one entry.
    Nothing is kept on disk."""
    return build_bank()


# a cell of at least this many samples splits its delay's passes into
# _PIECES pieces (lte._split); smaller ones, such as every 1.4 MHz cell,
# measured no gain from it
_SPLIT_MIN = 1 << 20
_PIECES = 4


def _delay_stacked(bb: np.ndarray, delay_samples: float, scale: float,
                   n: int, reach: int) -> np.ndarray:
    """The square |y|**2 / 2 of the delayed trace y, summed over its n
    equal parts and divided by n, as the detector low-pass of the whole
    trace sees it: q*FRAME_LEN samples, q = n1/n, extended by reach
    samples each side. n is 1 for the trace itself and the frame count for
    its stacked frame. bb may be overwritten.

    y = scale * ifft(fft(bb) * exp(-2j*pi*fftfreq(N)*delay_samples)) is bb
    delayed exactly, circularly and band-limited, by a four-step DFT: bb,
    N samples in whole 10 ms frames, is viewed as an (n1, FRAME_LEN)
    array. n1-point transforms along axis 0, a twiddle and FRAME_LEN-point
    transforms along axis 1 leave bin k1 + n1*k2 at [k1, k2], so the ramp
    is a row factor (with scale) times a column factor; k2 >= FRAME_LEN/2
    holds the negative frequencies, as in fftfreq. FRAME_LEN-point inverse
    transforms along axis 1 then give Z, with
    y[m] = sum over k of Z[k, b] * exp(2j*pi*k*m/N) / n1 at
    m = FRAME_LEN*j + b. Each transform is written back into the view
    (`out=`), so no N-sized scratch buffer is taken.

    Part f of y holds rows q*f .. q*f + q - 1 of the view, so with
    k = n*kb + ka the sum over f is Parseval's over the n-point transform
    along ka: the twiddle's ka half has unit modulus and drops out, the kb
    half is the (q, FRAME_LEN) table exp(2j*pi*kb*b/(q*FRAME_LEN)), and a
    q-point unnormalized inverse along kb leaves the energy to sum over
    ka, scaled by 1/(2*n*n*q*q). At n = 1 that is y's own n1-point
    inverse; at q = 1 it is the sum of |Z|**2/(2*n*n) alone. The low-pass
    zero-pads the trace, so the extension is the folded square taken
    periodically, less the square of the trace's last reach samples
    before it and of its first reach samples after it; those 2*reach
    samples of y come from Z directly. The energy is summed one output row
    at a time, so no temporary spans every row.

    The work runs as five passes, each a `lte._split` into _PIECES pieces
    on a cell of at least _SPLIT_MIN samples and into one piece otherwise:
    the n1-point transforms (column blocks); twiddle, FRAME_LEN-point
    transform, ramp and inverse (row blocks); the stacked twiddle (row
    blocks); the q-point inverse (column blocks); the energy (output
    rows). Every element takes the same operations however the passes are
    cut. The ends are taken whole between the two row passes: the bits of
    their product of two temporaries depend on its size, through numpy's
    reuse of temporaries.
    """
    size = bb.size
    n1 = size // FRAME_LEN
    q = n1 // n
    a = bb.reshape(n1, FRAME_LEN)
    step = -2j * np.pi * delay_samples / size
    pieces = _PIECES if size >= _SPLIT_MIN else 1

    def split(extent, piece):
        # piece(lo, hi) over the pieces of range(extent)
        count = min(pieces, extent)
        _split(lambda k: piece(k * extent // count,
                               (k + 1) * extent // count), count)

    def twiddle(v, sign, kj, row=None):
        # v[j, b] *= row[j, 0] * exp(sign*2j*pi*kj[j]*b/size), row 1 when
        # None; with b = 160*c + r (FRAME_LEN = 120*160) the factor is the
        # product of a (rows, 120) and a (rows, 160) table
        v = v.reshape(v.shape[0], FRAME_LEN // 160, 160)
        w = sign * 2j * np.pi / size * kj[:, None]
        c = np.exp(w * 160 * np.arange(FRAME_LEN // 160))
        v *= (c if row is None else row * c)[:, :, None]
        v *= np.exp(w * np.arange(160))[:, None, :]

    def columns(lo, hi):
        x = a[:, lo:hi]
        np.fft.fft(x, axis=0, out=x)

    split(FRAME_LEN, columns)
    ramp = np.exp(step * n1 * np.fft.fftfreq(FRAME_LEN, 1.0 / FRAME_LEN))

    def rows(lo, hi):
        x, j = a[lo:hi], np.arange(lo, hi)
        twiddle(x, -1, j, scale * np.exp(step * j)[:, None])
        np.fft.fft(x, axis=1, out=x)
        x *= ramp
        np.fft.ifft(x, axis=1, out=x)

    split(n1, rows)
    del ramp    # held only while the pass that reads it runs
    p = np.arange(-reach, reach)
    ends = (a[:, p % FRAME_LEN] *
            np.exp(2j * np.pi / size * np.outer(np.arange(n1), p))).sum(axis=0)
    ends = (ends.real * ends.real + ends.imag * ends.imag) / (2 * n1 * n1 * n)
    if q > 1:
        split(n1, lambda lo, hi: twiddle(a[lo:hi], 1,
                                         np.arange(lo, hi) // n * n))
        z = a.reshape(q, n * FRAME_LEN)

        def inverse(lo, hi):
            x = z[:, lo:hi]
            np.fft.ifft(x, axis=0, norm="forward", out=x)

        split(n * FRAME_LEN, inverse)
    parts = a.view(np.float64).reshape(q, n, 2 * FRAME_LEN)   # re, im, ...
    out = np.empty(q * FRAME_LEN + 2 * reach)
    folded = out[reach:reach + q * FRAME_LEN]
    energy_rows = folded.reshape(q, FRAME_LEN)

    def energy(lo, hi):
        for i in range(lo, hi):
            x = parts[i:i + 1]
            e = np.einsum("ijk,ijk->ik", x, x)      # summed over ka in order
            np.add(e[:, 0::2], e[:, 1::2], out=energy_rows[i:i + 1])
        energy_rows[lo:hi] /= 2 * n * n * q * q

    split(q, energy)
    out[:reach] = folded[folded.size - reach:] - ends[:reach]
    out[reach + folded.size:] = folded[:reach] - ends[reach:]
    return out


def _heard_cells(sc: Scenario, rx) -> list:
    """(index, cell, arrival(cell, rx)) of each cell heard at rx, at or above
    SENSITIVITY_FLOOR_DBM; the others are neither synthesized nor truth."""
    return [(ci, c, a) for ci, c in enumerate(sc.cells)
            if (a := arrival(c, rx))[2] >= SENSITIVITY_FLOOR_DBM]


def _synth_cell(cell, rng, n: int, delay_s: float, scale: float, per: int,
                reach: int) -> np.ndarray:
    """One cell's whole synthesis, the job `_synth` hands to _overlap: its n
    frames, payload from rng, then `_delay_stacked` by delay_s seconds
    with per frames averaged into each output frame."""
    cfg = cell.frame_cfg
    return _delay_stacked(_frames(cfg, cell.pci, rng, n),
                          delay_s * cfg.sample_rate_hz, scale, per, reach)


def _synth(sc: Scenario, fix_idx: int, per: int) -> np.ndarray:
    """The fix's trace with per frames averaged into each output frame:
    the trace itself at per = 1, its stacked frame at per = n."""
    _, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    n = sc.n_frames_per_fix
    total = np.zeros(n // per * FRAME_LEN)
    heard = _heard_cells(sc, rx)
    # each cell's own Generator, which only that cell's job draws from; the
    # reach on this thread, as its first call per rate designs the filter
    # through the public design_lowpass
    jobs = [(cell, substream(sc.rng_seed, "payload", fix_idx, ci), n, delay_s,
             a_rx, per, _fir_reach(cell.frame_cfg.sample_rate_hz))
            for ci, cell, (delay_s, a_rx, _) in heard]

    def fold(k, out):   # the outputs centered on the folded square
        out = lowpass_decimate(out, heard[k][1].frame_cfg.sample_rate_hz)
        first = (out.size - total.size) // 2
        np.add(total, out[first:first + total.size], out=total)

    _overlap(_synth_cell, jobs, fold)

    if sc.front_end.noise_sigma > 0:
        rng = substream(sc.rng_seed, "noise", fix_idx)
        noise = rng.normal(0.0, sc.front_end.noise_sigma, n * FRAME_LEN)
        total += noise.reshape(per, total.size).mean(axis=0)
    return total


def synth_fix_trace(sc: Scenario, fix_idx: int) -> np.ndarray:
    """Detector-rate trace for one fix: delayed, scaled, folded cells + noise.

    Each cell's n frames come from substream(seed, "payload", fix, cell),
    drawn frame by frame. Each cell is finished by `_delay_stacked` at one
    frame per output frame, its square extended as the low-pass's zero
    padding needs, and filtered. Cells are synthesized, frames and delay,
    on whichever thread works their job (lte._overlap), and filtered and
    folded into the total in cell order on the calling thread.
    """
    return _synth(sc, fix_idx, 1)


def synth_fix_stack(sc: Scenario, fix_idx: int) -> np.ndarray:
    """stack_frames(synth_fix_trace(sc, fix_idx), n), to rounding, for the
    fix's n frames: the one stacked frame that detection reads.

    Each cell is built as in synth_fix_trace but finished at n frames per
    output frame: no frame-axis inverse transform, and the FIR runs over
    one frame-folded square instead of n frames. Noise is the same
    full-length draw, stacked.
    """
    return _synth(sc, fix_idx, sc.n_frames_per_fix)


def detect_trace(trace: np.ndarray, bank, thresh_pss: float = THRESH_PSS,
                 thresh_sss: float = THRESH_SSS, n_stack: int | None = None,
                 mode: str = "plain") -> list[Detection]:
    """Stack, detect with the hierarchical search, then refine one trace.

    n_stack None stacks every whole frame of the trace. A trace that is
    already one stacked frame of FRAME_LEN samples, as `synth_fix_stack`
    returns, takes n_stack=1, which leaves it as it is. mode has the one
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
    proportional to 1/distance. Its arrival time is its delay less the
    cell's frame_time_origin_s in detector samples, so the towers' frame
    offsets leave the solve; delays are known only modulo HALF_FRAME, so
    each corrected delay is moved by whole half frames to within
    HALF_FRAME/2 of the first tower's.
    """
    obs, skipped = [], []
    for det in dets:
        cell = db.resolve(det.pci.value, prev_fix)
        if cell is None:
            skipped.append(det.pci.value)
            continue
        amp = np.sqrt(max(det.amplitude, 0.0)) * cell.carrier_hz / \
            np.sqrt(10.0 ** ((cell.tx_power_dbm - 30.0) / 10.0))
        toa = det.delay_samples + det.subsample_offset - \
            cell.frame_time_origin_s * DETECTOR_RATE_HZ
        if obs:
            toa -= HALF_FRAME * round((toa - obs[0].toa_samples) / HALF_FRAME)
        obs.append(TowerObservation(position=cell.position,
                                    amplitude=float(amp), toa_samples=toa))
    return obs, skipped


def run_fix(sc: Scenario, fix_idx: int) -> dict:
    """Synthesize, detect, and localize one fix; returns a JSON-able record."""
    t, x, y = sc.trajectory[fix_idx]
    rx = np.array([x, y])
    dets = detect_trace(synth_fix_stack(sc, fix_idx), _bank_for(sc.front_end),
                        sc.thresh_pss, sc.thresh_sss, 1)
    truth = sorted(c.pci.value for _, c, _ in _heard_cells(sc, rx))

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


def run_eval(sc: Scenario) -> RunReport:
    """Full pipeline over the scenario trajectory: run_fix on each fix in
    turn, in this process, then the metrics of the records."""
    n = len(sc.trajectory)
    records = [run_fix(sc, i) for i in range(n)]
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


MANIFEST_COLUMNS = ("fix", "trace_path", "t", "x_true", "y_true", "true_pcis")
TRAJECTORY_COLUMNS = ("t", "x_est", "y_est", "objective", "n_towers")


def cmd_synth(sc: Scenario, outdir: str) -> str:
    """Write per-fix traces and a manifest listing their absolute paths;
    returns its path. An old manifest is removed before the first trace,
    and the new one written once every trace is, so a failed run leaves
    none."""
    os.makedirs(outdir, exist_ok=True)
    manifest = os.path.join(outdir, "manifest.csv")
    with suppress(FileNotFoundError):
        os.unlink(manifest)
    rows = []
    for i, (t, x, y) in enumerate(sc.trajectory):
        path = os.path.abspath(os.path.join(outdir, f"trace_fix_{i:04d}.bin"))
        traceio.write_trace(path, synth_fix_trace(sc, i), DETECTOR_RATE_HZ)
        truth = ";".join(str(c.pci.value) for _, c, _ in _heard_cells(sc, (x, y)))
        rows.append([i, path, t, x, y, truth])
    write_csv_rows(manifest, MANIFEST_COLUMNS, rows)
    return manifest


def cmd_localize(detections_by_fix, db, method: str = "tdoa"):
    """Solve one position per fix from detection lists; returns CSV rows.

    Detection delays count detector samples at DETECTOR_RATE_HZ, and
    amplitudes are received powers, already divided by the template norm
    in `refine`, so no bank is needed. Rows hold TRAJECTORY_COLUMNS;
    unresolvable fixes (under three matched towers) yield empty estimate
    fields.
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
        if est.converged:
            prev = est.position
    return rows
