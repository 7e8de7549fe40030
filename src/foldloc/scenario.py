"""Scenario configuration and deterministic randomness.

Scenarios are INI files (key/value with sections) describing cells, the
front end, a trajectory, and detector/solver settings. All randomness in a
run flows from the single scenario seed through named substreams, so results
are reproducible and independent of execution order.
"""
from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field

import numpy as np

from .frontend import CellConfig, FrontEndConfig
from .lte import FrameConfig, Pci

# named substream tags; a substream is seeded by [seed, tag, *indices]
_STREAM_TAGS = {
    "payload": 1,
    "noise": 2,
    "timing": 3,
    "solver": 4,
    "scene": 5,
}


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, stream name, indices).

    Seeding by position rather than by execution order keeps parallel runs
    deterministic for any worker count.
    """
    return np.random.default_rng([int(seed), _STREAM_TAGS[name], *map(int, indices)])


class ScenarioError(ValueError):
    """Configuration or input table rejected; message carries file, section,
    key or line context."""


def read_csv_rows(path, columns):
    """Yield (line number, row dict) for each row of a CSV file.

    The header must name every column in `columns` (it may name more), and
    every row must have as many fields as the header; blank lines are
    skipped. Violations raise ScenarioError.
    """
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ScenarioError(f"{path}: header {reader.fieldnames} lacks "
                                f"columns {missing}")
        for row in reader:
            if None in row or None in row.values():
                raise ScenarioError(f"{path}:{reader.line_num}: expected "
                                    f"{len(reader.fieldnames)} fields")
            yield reader.line_num, row


@dataclass
class Scenario:
    cells: list[CellConfig]
    front_end: FrontEndConfig
    trajectory: list[tuple[float, float, float]]   # (t, x, y)
    rng_seed: int = 0
    n_frames_per_fix: int = 10
    thresh_pss: float = 0.3
    thresh_sss: float = 0.5
    solver: str = "tdoa"
    correlation_mode: str = "plain"

    def __post_init__(self):
        if not self.cells:
            raise ScenarioError("scenario has no cells")
        seen = set()
        for c in self.cells:
            key = (c.pci.value, c.carrier_hz)
            if key in seen:
                raise ScenarioError(f"duplicate cell (pci={key[0]}, "
                                    f"carrier={key[1]:g})")
            seen.add(key)
        times = [t for t, _, _ in self.trajectory]
        if not times:
            raise ScenarioError("trajectory is empty")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("trajectory times must be strictly increasing")
        if self.solver not in ("tdoa", "ratio"):
            raise ScenarioError(f"solver must be tdoa or ratio, got {self.solver!r}")
        if self.correlation_mode not in ("plain", "phat"):
            raise ScenarioError("correlation_mode must be plain or phat")
        if self.n_frames_per_fix < 1:
            raise ScenarioError("n_frames_per_fix must be >= 1")


def _get(cp, section, key, cast, default=None, required=False):
    try:
        raw = cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ScenarioError(f"[{section}] missing required key {key!r}")
        return default
    try:
        return cast(raw)
    except ValueError as e:
        raise ScenarioError(f"[{section}] {key} = {raw!r}: {e}") from None


def load_scenario(path) -> Scenario:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")

    fe = FrontEndConfig(
        lpf_cutoff_hz=_get(cp, "frontend", "lpf_cutoff_hz", float, 1.4e6),
        lpf_transition_hz=_get(cp, "frontend", "lpf_transition_hz", float, 0.4e6),
        lpf_atten_db=_get(cp, "frontend", "lpf_atten_db", float, 60.0),
        adc_rate_hz=_get(cp, "frontend", "adc_rate_hz", float, 1.92e6),
        noise_sigma=_get(cp, "frontend", "noise_sigma", float, 0.0),
        sensitivity_floor_dbm=_get(cp, "frontend", "sensitivity_floor_dbm",
                                   float, -70.0),
    )

    cells = []
    for section in sorted(s for s in cp.sections() if s.startswith("cell.")):
        try:
            cfg = FrameConfig.from_bandwidth(
                _get(cp, section, "bandwidth_mhz", float, 1.4))
            cells.append(CellConfig(
                pci=Pci(_get(cp, section, "pci", int, required=True)),
                carrier_hz=_get(cp, section, "carrier_hz", float, required=True),
                frame_cfg=cfg,
                position=(_get(cp, section, "x", float, required=True),
                          _get(cp, section, "y", float, required=True)),
                tx_power_dbm=_get(cp, section, "tx_power_dbm", float, 30.0),
                frame_time_origin_s=_get(cp, section, "frame_time_origin_s",
                                         float, 0.0),
            ))
        except (ValueError, KeyError) as e:
            if isinstance(e, ScenarioError):
                raise
            raise ScenarioError(f"[{section}] {e}") from None

    trajectory = []
    static = _get(cp, "trajectory", "static", str)
    points = _get(cp, "trajectory", "points", str)
    if static is not None and points is not None:
        raise ScenarioError("[trajectory] give either static or points, not both")
    if static is not None:
        try:
            x, y = (float(v) for v in static.split())
        except ValueError:
            raise ScenarioError(f"[trajectory] static = {static!r}, "
                                "expected 'x y'") from None
        n_fixes = _get(cp, "trajectory", "n_fixes", int, 1)
        trajectory = [(float(i), x, y) for i in range(n_fixes)]
    elif points is not None:
        for chunk in points.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                t, x, y = (float(v) for v in chunk.split(","))
            except ValueError:
                raise ScenarioError(f"[trajectory] bad point {chunk!r}, "
                                    "expected 't,x,y'") from None
            trajectory.append((t, x, y))
    else:
        raise ScenarioError("[trajectory] needs static or points")

    return Scenario(
        cells=cells,
        front_end=fe,
        trajectory=trajectory,
        rng_seed=_get(cp, "scenario", "seed", int, 0),
        n_frames_per_fix=_get(cp, "scenario", "n_frames_per_fix", int, 10),
        thresh_pss=_get(cp, "scenario", "thresh_pss", float, 0.3),
        thresh_sss=_get(cp, "scenario", "thresh_sss", float, 0.5),
        solver=_get(cp, "scenario", "solver", str, "tdoa"),
        correlation_mode=_get(cp, "scenario", "mode", str, "plain"),
    )


@dataclass
class CellDatabase:
    """Flat tower table: pci, position, carrier, bandwidth, tx power."""

    rows: list = field(default_factory=list)   # (pci, x, y, carrier, bw, dbm)

    def __post_init__(self):
        seen = set()
        for pci, x, y, carrier, bw, dbm in self.rows:
            if not all(np.isfinite(v) for v in (x, y, carrier, bw, dbm)):
                raise ScenarioError(f"cell db row pci={pci}: non-finite value")
            key = (pci, carrier)
            if key in seen:
                raise ScenarioError(f"cell db duplicate (pci={pci}, "
                                    f"carrier={carrier:g})")
            seen.add(key)

    def resolve(self, pci: int, prev_fix=None):
        """Row for a PCI; ambiguity resolved toward the previous fix.

        Returns None when the PCI is absent or ambiguous with no prior fix
        (PCIs repeat over large distances, so a cold start cannot pick).
        """
        matches = [r for r in self.rows if r[0] == pci]
        if not matches:
            return None
        if len(matches) == 1:
            return matches[0]
        if prev_fix is None:
            return None
        return min(matches, key=lambda r: (np.hypot(r[1] - prev_fix[0],
                                                    r[2] - prev_fix[1]),
                                           r[3]))


CELL_DB_COLUMNS = ("pci", "x", "y", "carrier_hz", "bandwidth_mhz", "tx_power_dbm")


def load_cell_db(path) -> CellDatabase:
    rows = []
    for ln, r in read_csv_rows(path, CELL_DB_COLUMNS):
        try:
            rows.append((int(r["pci"]), *(float(r[c]) for c in CELL_DB_COLUMNS[1:])))
        except ValueError as e:
            raise ScenarioError(f"{path}:{ln}: {e}") from None
    return CellDatabase(rows=rows)


def scenario_cell_db(sc: Scenario) -> CellDatabase:
    """Database view of a scenario's own cells (simulation ground truth)."""
    return CellDatabase(rows=[
        (c.pci.value, c.position[0], c.position[1], c.carrier_hz,
         c.frame_cfg.bandwidth_mhz, c.tx_power_dbm) for c in sc.cells])
