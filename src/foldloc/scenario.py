"""Scenario configuration, the cell database and deterministic randomness.

A scenario is an INI file with the sections and keys below; any other
section or key, `[DEFAULT]` included, raises ScenarioError. A key left out
keeps the default of the dataclass field it sets.

- `[scenario]`: `seed` (`Scenario.rng_seed`), `n_frames_per_fix`,
  `thresh_pss`, `thresh_sss` and `solver` (the `Scenario` fields).
- `[frontend]`: every `FrontEndConfig` field, by name.
- `[cell.NAME]`, one per cell, read by `parse_cell`: `pci`, `carrier_hz`,
  `x` and `y` (`CellConfig.position`) are required; `bandwidth_mhz`
  (`CellConfig.frame_cfg`), `tx_power_dbm` and `frame_time_origin_s`.
- `[trajectory]`: `static = x y` with `n_fixes` (default 1) fixes at
  t = 0, 1, ..., or `points = t,x,y; t,x,y; ...`.

The cell database is a CSV with the columns CELL_DB_COLUMNS and no others,
each row read by `parse_cell`. `read_csv_rows` reads every CSV table and
`write_csv_rows` writes every one the CLI makes, whole or not at all. All
randomness in a run flows from the scenario seed through named
substreams, so results are reproducible and independent of execution order.
"""
from __future__ import annotations

import configparser
import csv
import os
from collections import Counter
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields
from itertools import chain

import numpy as np

from .detect import THRESH_PSS, THRESH_SSS
from .frontend import CellConfig, FrontEndConfig
from .locate import SOLVERS
from .lte import FrameConfig, Pci

# named substream tags; a substream is seeded by [seed, tag, *indices]
_STREAM_TAGS = {
    "payload": 1,
    "noise": 2,
    "timing": 3,
    "scene": 5,
}


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, stream name, indices).

    Seeding by position rather than by execution order keeps runs
    deterministic whatever order their draws are made in.
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


def write_csv_rows(path, columns, rows) -> None:
    """A CSV of the header columns and then rows at path, whole or not at
    all: it is written to path + ".tmp", which replaces path once complete;
    on any error the temporary file is removed and path left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="") as f:
            csv.writer(f).writerows(chain([columns], rows))
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _finite(texts, where: str) -> list[float]:
    """texts parsed as finite floats; anything else raises ScenarioError
    prefixed with where, the path:line."""
    try:
        vals = [float(t) for t in texts]
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None
    if not np.isfinite(vals).all():
        raise ScenarioError(f"{where}: non-finite value in {list(texts)}")
    return vals


def check_thresholds(thresh_pss: float, thresh_sss: float) -> None:
    """Raise ScenarioError unless both thresholds lie in [-1, 1): NCC
    scores lie in [-1, 1], and a detection scores above its threshold."""
    if not (-1.0 <= thresh_pss < 1.0 and -1.0 <= thresh_sss < 1.0):
        raise ScenarioError("thresh_pss and thresh_sss must lie in [-1, 1), "
                            f"got {thresh_pss!r} and {thresh_sss!r}")


@dataclass
class Scenario:
    cells: list[CellConfig]
    front_end: FrontEndConfig
    trajectory: list[tuple[float, float, float]]   # (t, x, y)
    rng_seed: int = 0
    n_frames_per_fix: int = 10
    thresh_pss: float = THRESH_PSS
    thresh_sss: float = THRESH_SSS
    solver: str = "tdoa"                            # a key of locate.SOLVERS
    correlation_mode: str = "plain"   # no INI key; the benchmark passes it on

    def __post_init__(self):
        CellDatabase(self.cells)        # rejects no cells or a duplicate
        times = [t for t, _, _ in self.trajectory]
        if not times:
            raise ScenarioError("trajectory is empty")
        if not np.isfinite(self.trajectory).all():
            raise ScenarioError("non-finite t, x or y in the trajectory")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("trajectory times must be strictly increasing")
        if self.solver not in SOLVERS:
            raise ScenarioError(f"solver {self.solver!r} not in {list(SOLVERS)}")
        if self.correlation_mode != "plain":
            raise ScenarioError("correlation_mode must be plain")
        if self.n_frames_per_fix < 1:
            raise ScenarioError("n_frames_per_fix must be >= 1")
        if self.rng_seed < 0:       # substream seeds take no negative value
            raise ScenarioError(f"seed must be >= 0, got {self.rng_seed}")
        check_thresholds(self.thresh_pss, self.thresh_sss)


def _typed(values, types: dict, where: str) -> dict:
    """values parsed key by key by types; an unknown key or a value its
    parser rejects raises ScenarioError prefixed with where."""
    out = {}
    for key, raw in values.items():
        if key not in types:
            raise ScenarioError(f"{where}: unknown key {key!r}, not in {list(types)}")
        try:
            out[key] = types[key](raw)
        except ValueError as e:
            raise ScenarioError(f"{where}: {key} = {raw!r}: {e}") from None
    return out


def _field_types(cls, skip=()) -> dict[str, type]:
    """Name -> type of the default, for each defaulted field of a dataclass."""
    return {f.name: type(f.default) for f in fields(cls)
            if f.default is not MISSING and f.name not in skip}


# cell-section key or cell-DB column -> parser of its string
CELL_KEYS = {"pci": lambda v: Pci(int(v)), "carrier_hz": float, "x": float,
             "y": float, "bandwidth_mhz": FrameConfig.from_bandwidth,
             "tx_power_dbm": float, "frame_time_origin_s": float}
CELL_DB_COLUMNS = ("pci", "x", "y", "carrier_hz", "bandwidth_mhz", "tx_power_dbm")


def parse_cell(values, where: str) -> CellConfig:
    """The CellConfig of an INI cell section or a cell-DB row: values maps
    CELL_KEYS names to strings, and a key left out keeps CellConfig's
    default. A failed parse or check (Pci's, FrameConfig's or CellConfig's)
    raises ScenarioError prefixed with where, the section or path:line."""
    kw = _typed(values, CELL_KEYS, where)
    missing = [k for k in ("pci", "carrier_hz", "x", "y") if k not in kw]
    if missing:
        raise ScenarioError(f"{where}: missing required key {missing[0]!r}")
    if "bandwidth_mhz" in kw:
        kw["frame_cfg"] = kw.pop("bandwidth_mhz")
    try:
        return CellConfig(position=(kw.pop("x"), kw.pop("y")), **kw)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None


def _trajectory(section) -> list[tuple[float, float, float]]:
    kw = _typed(section, {"static": str, "points": str, "n_fixes": int},
                "[trajectory]")
    if ("static" in kw) == ("points" in kw) or "n_fixes" in kw and "points" in kw:
        raise ScenarioError("[trajectory] give either static (with n_fixes) "
                            "or points, not both")
    key = "static" if "static" in kw else "points"
    try:
        if key == "static":
            x, y = map(float, kw["static"].split())
            return [(float(i), x, y) for i in range(kw.get("n_fixes", 1))]
        return [(t, x, y) for t, x, y in (map(float, p.split(","))
                for p in kw["points"].split(";") if p.strip())]
    except ValueError:
        raise ScenarioError(f"[trajectory] {key} = {kw[key]!r} is not "
                            "'x y' or 't,x,y; ...'") from None


def load_scenario(path) -> Scenario:
    """The Scenario of an INI file; see the module docstring for its keys."""
    cp = configparser.ConfigParser()
    cp.read_dict({"scenario": {}, "frontend": {}, "trajectory": {}})
    try:
        if not cp.read(path):
            raise ScenarioError(f"cannot read scenario file {path}")
    except configparser.Error as e:
        raise ScenarioError(f"{path}: {e}") from None
    if cp.defaults():
        raise ScenarioError(f"{path}: a [DEFAULT] section is not accepted; "
                            "give each key in its own section")
    for s in cp.sections():
        if s not in ("scenario", "frontend", "trajectory") \
                and not s.startswith("cell."):
            raise ScenarioError(f"unknown section [{s}]; expected [scenario], "
                                "[frontend], [trajectory] or [cell.NAME]")
    kw = _typed(cp["frontend"], _field_types(FrontEndConfig), "[frontend]")
    try:
        fe = FrontEndConfig(**kw)
    except ValueError as e:
        raise ScenarioError(f"[frontend]: {e}") from None
    cells = [parse_cell(cp[s], f"[{s}]")
             for s in sorted(s for s in cp.sections() if s.startswith("cell."))]
    kw = _typed(cp["scenario"], {"seed": int, **_field_types(
        Scenario, skip=("rng_seed", "correlation_mode"))}, "[scenario]")
    if "seed" in kw:
        kw["rng_seed"] = kw.pop("seed")
    return Scenario(cells=cells, front_end=fe,
                    trajectory=_trajectory(cp["trajectory"]), **kw)


@dataclass
class CellDatabase:
    """The towers detections resolve to; no two share (pci, carrier)."""

    cells: list[CellConfig]

    def __post_init__(self):
        if not self.cells:
            raise ScenarioError("no cells")
        counts = Counter((c.pci.value, c.carrier_hz) for c in self.cells)
        for (pci, carrier), n in counts.items():
            if n > 1:
                raise ScenarioError(f"duplicate cell (pci={pci}, carrier={carrier:g})")

    def resolve(self, pci: int, prev_fix=None) -> CellConfig | None:
        """Cell of a PCI, ambiguity resolved toward the previous fix; None
        when the PCI is absent or ambiguous with no prior fix (PCIs repeat
        over large distances, so a cold start cannot pick)."""
        matches = [c for c in self.cells if c.pci.value == pci]
        if len(matches) == 1:
            return matches[0]
        if not matches or prev_fix is None:
            return None
        return min(matches, key=lambda c: (
            np.hypot(c.position[0] - prev_fix[0], c.position[1] - prev_fix[1]),
            c.carrier_hz))


def load_cell_db(path) -> CellDatabase:
    """Cells of a CSV whose header names CELL_DB_COLUMNS and no other
    column, one per row."""
    cells = []
    for ln, r in read_csv_rows(path, CELL_DB_COLUMNS):
        extra = [c for c in r if c not in CELL_DB_COLUMNS]
        if extra:
            raise ScenarioError(f"{path}: unknown columns {extra}, not in "
                                f"{list(CELL_DB_COLUMNS)}")
        cells.append(parse_cell(r, f"{path}:{ln}"))
    return CellDatabase(cells)


def scenario_cell_db(sc: Scenario) -> CellDatabase:
    """Database view of a scenario's own cells (simulation ground truth)."""
    return CellDatabase(sc.cells)
