"""Seeded workloads of the foldloc benchmark.

Each workload builds its inputs from the benchmark seed in `setup` and runs
one fix at a time through the public foldloc API in `fix`, returning a
record with the keys of `harness.run_fix` records. Fix k of a run gets its
own input, except on s5_sync_replay, which cycles through the traces its
set-up wrote. The program only sees
the generated inputs. Why each workload exists, and what it exposes today,
is in README.md beside this file.

Importing this module puts the checkout's `src` first on the import path
and refuses a foldloc package found anywhere else.
"""
from __future__ import annotations

import csv
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import foldloc  # noqa: E402

if Path(foldloc.__file__).resolve().parent != ROOT / "src" / "foldloc":
    raise ImportError(f"foldloc imported from {foldloc.__file__}, "
                      f"not from {ROOT / 'src'}")

from foldloc import harness, traceio  # noqa: E402
from foldloc.detect import DETECTOR_RATE_HZ  # noqa: E402
from foldloc.frontend import CellConfig, FrontEndConfig  # noqa: E402
from foldloc.lte import FrameConfig, Pci  # noqa: E402
from foldloc.scenario import Scenario, scenario_cell_db  # noqa: E402

# ROADMAP scenario S5. No PCI is 74 or 274, the half-frame aliases of PCI
# 10, so an alias that survives detection counts as a false positive.
S5_TOWERS = ((0.0, 0.0), (6000.0, 0.0), (0.0, 6000.0), (6000.0, 6000.0),
             (3000.0, -3000.0))
S5_PCIS = (10, 84, 150, 222, 301)
S5_ORIGINS = (0, 1500, 3000, 4500, 6000)      # frame origins in samples
S5_CENTER = (2000.0, 2500.0)

# the origin-separated three-cell geometry of the harness tests, with one
# cell per bandwidth; tx power compensates path loss at the origin
WIDE_CELLS = ((101, 800.0, 0.0, 0, 46.0, 20.0, 2.115e9),
              (202, 0.0, 1000.0, 1500, 46.0 + 20 * np.log10(1000 / 800), 10.0, 2.145e9),
              (303, -884.0, -884.0, 3000, 46.0 + 20 * np.log10(1250 / 800), 5.0, 2.175e9))

TRAJECTORY_LEN = 512        # more fixes than a run makes; fix k uses point k % 512
WORK_DIR = Path(__file__).resolve().parent / "_work"


@dataclass(frozen=True)
class Workload:
    name: str
    quality_fixes: int      # quality is measured on fixes 0..quality_fixes-1
    setup: Callable[[int, Path], object]           # (seed, scratch dir) -> context
    fix: Callable[[object, int], dict]             # (context, fix index) -> record


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), *name.encode()])


def _trajectory(seed: int, name: str, n: int, center, half_width: float):
    pts = _rng(seed, name).uniform(-half_width, half_width, (n, 2)) + center
    return [(float(i), float(x), float(y)) for i, (x, y) in enumerate(pts)]


def s5_scenario(seed: int, origins, name: str, n_fixes: int = TRAJECTORY_LEN) -> Scenario:
    cfg = FrameConfig.from_bandwidth(1.4)
    cells = [CellConfig(pci=Pci(p), carrier_hz=700e6 + 20e6 * i, frame_cfg=cfg,
                        position=pos, tx_power_dbm=46.0,
                        frame_time_origin_s=o / DETECTOR_RATE_HZ)
             for i, (p, pos, o) in enumerate(zip(S5_PCIS, S5_TOWERS, origins))]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=_trajectory(seed, name, n_fixes, S5_CENTER, 250.0),
                    rng_seed=seed, n_frames_per_fix=10)


def wideband_scenario(seed: int, n_fixes: int = TRAJECTORY_LEN) -> Scenario:
    cells = [CellConfig(pci=Pci(p), carrier_hz=f,
                        frame_cfg=FrameConfig.from_bandwidth(bw), position=(x, y),
                        tx_power_dbm=dbm, frame_time_origin_s=o / DETECTOR_RATE_HZ)
             for p, x, y, o, dbm, bw, f in WIDE_CELLS]
    return Scenario(cells=cells, front_end=FrontEndConfig(noise_sigma=0.0),
                    trajectory=_trajectory(seed, "wideband_3cell", n_fixes,
                                           (0.0, 0.0), 50.0),
                    rng_seed=seed, n_frames_per_fix=8, solver="ratio")


def cold_bank(fe: FrontEndConfig):
    """Template bank built from scratch and left warm for the harness."""
    harness._bank_for.cache_clear()
    return harness._bank_for(replace(fe, noise_sigma=0.0))


def record(i, t, truth_xy, true_pcis, dets, estimate, n_towers, converged=None,
           error_m=None) -> dict:
    """A fix record in the layout of harness.run_fix."""
    if estimate is not None and error_m is None:
        error_m = round(float(np.hypot(estimate[0] - truth_xy[0],
                                       estimate[1] - truth_xy[1])), 9)
    return {
        "fix": i, "t": t, "true_position": list(truth_xy),
        "true_pcis": sorted(true_pcis),
        "detections": [[d.pci.value, d.delay_samples, round(d.subsample_offset, 9),
                        round(d.amplitude, 12), round(d.score, 9)] for d in dets],
        "skipped_pcis": [], "estimate": estimate, "error_m": error_m,
        "n_towers": n_towers, "converged": converged,
    }


# s5_offset and wideband_3cell: the whole chain through run_fix


def _with_bank(sc: Scenario) -> Scenario:
    cold_bank(sc.front_end)
    return sc


def _fix_run_fix(sc, k):
    return harness.run_fix(sc, k % len(sc.trajectory))


# s5_sync_replay: traces written in set-up, then the CLI detect -> localize path

N_REPLAY_TRACES = 16


@dataclass
class Replay:
    sc: Scenario
    bank: object
    db: object
    rows: list


def _setup_sync_replay(seed, work: Path):
    sc = s5_scenario(seed, (0,) * len(S5_PCIS), "s5_sync_replay",
                     N_REPLAY_TRACES)
    bank = cold_bank(sc.front_end)
    if work.exists():
        shutil.rmtree(work)
    manifest = harness.cmd_synth(sc, str(work))
    with open(manifest, newline="") as f:
        rows = list(csv.DictReader(f))
    return Replay(sc, bank, scenario_cell_db(sc), rows)


def _fix_sync_replay(ctx: Replay, k):
    i = k % len(ctx.rows)
    row = ctx.rows[i]
    samples, _rate = traceio.read_trace(row["trace_path"])
    sc = ctx.sc
    dets = harness.detect_trace(samples, ctx.bank, sc.thresh_pss, sc.thresh_sss,
                                sc.n_frames_per_fix, sc.correlation_mode)
    t = float(row["t"])
    (_, x, y, _, n_towers), = harness.cmd_localize([(t, dets)], ctx.db)
    est = None if x == "" else [float(x), float(y)]
    truth = [int(p) for p in row["true_pcis"].split(";") if p]
    return record(i, t, (float(row["x_true"]), float(row["y_true"])), truth,
                  dets, est, n_towers)


# urban_tdoa: the observation-level solver study, one receiver per fix


def _setup_urban(seed, _work):
    cold_bank(FrontEndConfig())
    return int(seed)


def _fix_urban(seed, k):
    out = harness.run_urban_sim(np.array(S5_TOWERS), n_fixes=1,
                                timing_noise_samples=0.1, epochs_per_fix=10,
                                seed=seed * 1_000_000 + k)
    return record(k, float(k), (None, None), [], [], None, len(S5_TOWERS),
                  error_m=round(out["errors_m"][0], 9))


WORKLOADS = {w.name: w for w in (
    Workload("s5_offset", 24,
             lambda seed, _work: _with_bank(s5_scenario(seed, S5_ORIGINS, "s5_offset")),
             _fix_run_fix),
    Workload("s5_sync_replay", N_REPLAY_TRACES, _setup_sync_replay, _fix_sync_replay),
    Workload("urban_tdoa", 32, _setup_urban, _fix_urban),
    Workload("wideband_3cell", 4,
             lambda seed, _work: _with_bank(wideband_scenario(seed)), _fix_run_fix),
)}


def work_dir() -> Path:
    """Scratch directory for this process inside the benchmark directory."""
    return WORK_DIR / str(os.getpid())
