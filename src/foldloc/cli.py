"""Command-line harness.

Subcommands: synth, detect, localize, track, eval. Exit codes: 0 success,
2 validation/configuration error, 3 runtime or data error.

Files, with their columns: synth reads a scenario INI and writes traces
and `manifest.csv` (`harness.MANIFEST_COLUMNS`); detect reads a trace or
that manifest and writes a CSV per trace (DETECTION_COLUMNS) and
`detections_manifest.csv` (DETECTIONS_MANIFEST_COLUMNS); localize reads
that and a cell DB (`scenario.CELL_DB_COLUMNS`) and writes a trajectory
(`harness.TRAJECTORY_COLUMNS`); track reads a trajectory, roads
(`roads.ROAD_COLUMNS`) and a geofence, and writes PREFIX.snapped.csv
(SNAPPED_COLUMNS) and PREFIX.alerts.csv (ALERT_COLUMNS); eval reads a
scenario INI and writes a RunReport JSON. Every CSV is written whole or
not at all by `scenario.write_csv_rows`, and manifests list absolute
paths; synth and detect first remove their old manifest.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress

from . import traceio
from .detect import THRESH_PSS, THRESH_SSS, BankMismatchError, Detection
from .frontend import DETECTOR_RATE_HZ, FrontEndConfig
from .harness import MANIFEST_COLUMNS, TRAJECTORY_COLUMNS, _bank_for, \
    cmd_localize, cmd_synth, detect_trace, run_eval
from .locate import SOLVERS
from .lte import Pci
from .roads import Fix, geofence_events, load_geofence_csv, \
    load_road_graph_csv, snap_trajectory
from .scenario import CELL_DB_COLUMNS, ScenarioError, _finite, \
    check_thresholds, load_cell_db, load_scenario, read_csv_rows, \
    write_csv_rows
from .traceio import TraceFormatError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

DETECTION_COLUMNS = ("pci", "delay_samples", "subsample_offset", "amplitude",
                     "score")
DETECTIONS_MANIFEST_COLUMNS = ("fix", "t", "detections_path", "x_true",
                               "y_true", "true_pcis")
SNAPPED_COLUMNS = ("t", "x_raw", "y_raw", "x_snapped", "y_snapped", "reseeded")
ALERT_COLUMNS = ("t", "event")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="foldloc",
                                description="Square-law LTE cell detection "
                                            "and localization pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize per-fix traces from a scenario")
    ps.add_argument("scenario")
    ps.add_argument("-o", "--outdir", required=True)

    pd = sub.add_parser("detect", help="detect PCIs in a trace or manifest")
    pd.add_argument("input", help="trace file or manifest.csv")
    pd.add_argument("-o", "--outdir", default=None,
                    help="output directory (default: alongside input)")
    pd.add_argument("--thresh-pss", type=float, default=THRESH_PSS)
    pd.add_argument("--thresh-sss", type=float, default=THRESH_SSS)
    pd.add_argument("--stack", type=int, default=None,
                    help="frames to stack (default: whole trace)")

    pl = sub.add_parser("localize", help="solve positions from detections")
    pl.add_argument("manifest", help="detections manifest from `detect`")
    pl.add_argument("--cell-db", required=True,
                    help="cell DB CSV with the columns "
                         f"{', '.join(CELL_DB_COLUMNS)}; frame_time_origin_s "
                         "is the tower's frame offset in seconds, 0 on a "
                         "synchronized network")
    pl.add_argument("--method", choices=SOLVERS, default="tdoa")
    pl.add_argument("-o", "--out", required=True, help="trajectory CSV")

    pt = sub.add_parser("track", help="snap a trajectory and evaluate geofences")
    pt.add_argument("trajectory", help="trajectory CSV from `localize`")
    pt.add_argument("--roads", required=True)
    pt.add_argument("--geofence", default=None)
    pt.add_argument("-o", "--out-prefix", required=True)

    pe = sub.add_parser("eval", help="run the full pipeline, emit a RunReport")
    pe.add_argument("scenario")
    pe.add_argument("-o", "--out", required=True, help="report JSON path")
    return p


def _fix_number(text: str, where: str) -> int:
    """A manifest's fix index, a non-negative integer; anything else raises
    ScenarioError prefixed with where, the path:line."""
    with suppress(ValueError):
        if int(text) >= 0:
            return int(text)
    raise ScenarioError(f"{where}: fix {text!r} is not a non-negative integer")


def write_detections_csv(path, detections: list[Detection]) -> None:
    write_csv_rows(path, DETECTION_COLUMNS, (
        (d.pci.value, d.delay_samples, f"{d.subsample_offset:.6f}",
         f"{d.amplitude:.6g}", f"{d.score:.6f}") for d in detections))


def read_detections_csv(path) -> list[Detection]:
    """Detections of one CSV; a malformed or non-finite value raises
    ScenarioError naming path:line."""
    out = []
    for ln, r in read_csv_rows(path, DETECTION_COLUMNS):
        where = f"{path}:{ln}"
        tau, amp, score = _finite([r[c] for c in DETECTION_COLUMNS[2:]], where)
        try:
            out.append(Detection(Pci(int(r["pci"])), int(r["delay_samples"]),
                                 score, amp, tau))
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from None
    return out


def _detect_file(trace_path: str, out_csv: str, args) -> list[Detection]:
    """Detections of one trace file, also written to out_csv."""
    samples, rate = traceio.read_trace(trace_path)
    if abs(rate - DETECTOR_RATE_HZ) > 1e-6:
        raise BankMismatchError(
            f"trace rate {rate:g} is not the detector rate {DETECTOR_RATE_HZ:g}")
    dets = detect_trace(samples, _bank_for(FrontEndConfig()), args.thresh_pss,
                        args.thresh_sss, args.stack)
    os.makedirs(os.path.dirname(out_csv), exist_ok=True)
    write_detections_csv(out_csv, dets)
    return dets


def _do_detect(args) -> int:
    check_thresholds(args.thresh_pss, args.thresh_sss)
    outdir = os.path.abspath(args.outdir or os.path.dirname(args.input))
    if not args.input.endswith(".csv"):
        out_csv = os.path.join(
            outdir, os.path.basename(args.input).rsplit(".", 1)[0]
            + ".detections.csv")
        for d in _detect_file(args.input, out_csv, args):
            print(f"pci={d.pci.value} delay={d.delay_samples} "
                  f"score={d.score:.3f} amp={d.amplitude:.4g}")
        print(f"wrote {out_csv}")
        return EXIT_OK
    rows = list(read_csv_rows(args.input, MANIFEST_COLUMNS))
    if not rows:
        raise ScenarioError(f"{args.input}: manifest lists no traces")
    fixes = []
    for ln, row in rows:
        where = f"{args.input}:{ln}"
        fixes.append(_fix_number(row["fix"], where))
        _finite([row["t"]], where)
        if fixes[-1] in fixes[:-1]:
            # both rows would write one detections file
            raise ScenarioError(f"{where}: fix {fixes[-1]} listed twice")
    det_manifest = os.path.join(outdir, "detections_manifest.csv")
    with suppress(FileNotFoundError):
        os.unlink(det_manifest)
    listed = []
    for fix, (_, row) in zip(fixes, rows):
        out_csv = os.path.join(outdir, f"detections_fix_{fix:04d}.csv")
        dets = _detect_file(row["trace_path"], out_csv, args)
        listed.append([row["fix"], row["t"], out_csv, row["x_true"],
                       row["y_true"], row["true_pcis"]])
        print(f"fix {row['fix']}: {len(dets)} detections")
    write_csv_rows(det_manifest, DETECTIONS_MANIFEST_COLUMNS, listed)
    print(f"wrote {det_manifest}")
    return EXIT_OK


def _do_localize(args) -> int:
    db = load_cell_db(args.cell_db)
    by_fix = []
    for ln, row in read_csv_rows(args.manifest, DETECTIONS_MANIFEST_COLUMNS[1:3]):
        t, = _finite([row["t"]], f"{args.manifest}:{ln}")
        by_fix.append((t, read_detections_csv(row["detections_path"])))
    if not by_fix:
        raise ScenarioError(f"{args.manifest}: manifest lists no detections")
    rows = cmd_localize(by_fix, db, args.method)
    write_csv_rows(args.out, TRAJECTORY_COLUMNS, rows)
    solved = sum(1 for r in rows if r[1] != "")
    print(f"wrote {args.out}: {solved}/{len(rows)} fixes resolved")
    return EXIT_OK


def _do_track(args) -> int:
    graph = load_road_graph_csv(args.roads)
    region = load_geofence_csv(args.geofence) if args.geofence else None
    fixes = []
    for ln, row in read_csv_rows(args.trajectory, TRAJECTORY_COLUMNS[:3]):
        if row["x_est"] == "":
            continue
        where = f"{args.trajectory}:{ln}"
        t, x, y = _finite([row["t"], row["x_est"], row["y_est"]], where)
        if fixes and t <= fixes[-1].t:     # snapping needs time to pass
            raise ScenarioError(f"{where}: t = {t:g} is not after the "
                                f"previous fix's {fixes[-1].t:g}")
        fixes.append(Fix(t=t, position=(x, y)))
    snapped = snap_trajectory(fixes, graph)
    snap_path = args.out_prefix + ".snapped.csv"
    write_csv_rows(snap_path, SNAPPED_COLUMNS, (
        (fx.t, *fx.position, *fx.snapped, int(fx.reseeded)) for fx in snapped))
    alert_path = args.out_prefix + ".alerts.csv"
    events = geofence_events(snapped, region) if region is not None else []
    write_csv_rows(alert_path, ALERT_COLUMNS, events)
    print(f"wrote {snap_path} and {alert_path} ({len(events)} alerts)")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            manifest = cmd_synth(load_scenario(args.scenario), args.outdir)
            print(f"wrote {manifest}")
            return EXIT_OK
        if args.command == "detect":
            return _do_detect(args)
        if args.command == "localize":
            return _do_localize(args)
        if args.command == "track":
            return _do_track(args)
        report = run_eval(load_scenario(args.scenario))     # eval
        with open(args.out, "w") as f:
            f.write(report.to_json())
        for k in sorted(report.metrics):
            print(f"{k}: {report.metrics[k]}")
        print(f"wrote {args.out}")
        return EXIT_OK
    except TraceFormatError as e:           # ValueError subclass, catch first
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ScenarioError, BankMismatchError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
