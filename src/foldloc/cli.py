"""Command-line harness.

Subcommands: synth, detect, localize, track, eval. Exit codes: 0 success,
2 validation/configuration error, 3 runtime or data error.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

from .detect import THRESH_PSS, THRESH_SSS, BankMismatchError
from .harness import _csv_replacing, cmd_detect, cmd_localize, cmd_synth, \
    read_detections_csv, run_eval
from .locate import SOLVERS
from .roads import Fix, _finite, geofence_events, load_geofence_csv, \
    load_road_graph_csv, snap_trajectory
from .scenario import ScenarioError, check_thresholds, load_cell_db, \
    load_scenario, read_csv_rows
from .traceio import TraceFormatError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


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
    pl.add_argument("--cell-db", required=True)
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
    try:
        fix = int(text)
    except ValueError:
        fix = -1
    if fix < 0:
        raise ScenarioError(f"{where}: fix {text!r} is not a non-negative "
                            "integer")
    return fix


def _do_detect(args) -> int:
    check_thresholds(args.thresh_pss, args.thresh_sss)
    outdir = args.outdir or os.path.dirname(os.path.abspath(args.input))
    if args.input.endswith(".csv"):
        rows = list(read_csv_rows(args.input, (
            "fix", "trace_path", "t", "x_true", "y_true", "true_pcis")))
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
        os.makedirs(outdir, exist_ok=True)
        det_manifest = os.path.join(outdir, "detections_manifest.csv")
        with _csv_replacing(det_manifest) as w:
            w.writerow(["fix", "t", "detections_path", "x_true", "y_true",
                        "true_pcis"])
            for fix, (_, row) in zip(fixes, rows):
                out_csv = os.path.join(outdir, f"detections_fix_{fix:04d}.csv")
                dets = cmd_detect(row["trace_path"], out_csv, args.thresh_pss,
                                  args.thresh_sss, args.stack)
                w.writerow([row["fix"], row["t"], out_csv, row["x_true"],
                            row["y_true"], row["true_pcis"]])
                print(f"fix {row['fix']}: {len(dets)} detections")
        print(f"wrote {det_manifest}")
    else:
        os.makedirs(outdir, exist_ok=True)
        out_csv = os.path.join(
            outdir, os.path.basename(args.input).rsplit(".", 1)[0]
            + ".detections.csv")
        dets = cmd_detect(args.input, out_csv, args.thresh_pss,
                          args.thresh_sss, args.stack)
        for d in dets:
            print(f"pci={d.pci.value} delay={d.delay_samples} "
                  f"score={d.score:.3f} amp={d.amplitude:.4g}")
        print(f"wrote {out_csv}")
    return EXIT_OK


def _do_localize(args) -> int:
    db = load_cell_db(args.cell_db)
    by_fix = []
    for ln, row in read_csv_rows(args.manifest, ("t", "detections_path")):
        t, = _finite([row["t"]], f"{args.manifest}:{ln}")
        by_fix.append((t, read_detections_csv(row["detections_path"])))
    if not by_fix:
        raise ScenarioError(f"{args.manifest}: manifest lists no detections")
    rows = cmd_localize(by_fix, db, args.method)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "x_est", "y_est", "objective", "n_towers"])
        w.writerows(rows)
    solved = sum(1 for r in rows if r[1] != "")
    print(f"wrote {args.out}: {solved}/{len(rows)} fixes resolved")
    return EXIT_OK


def _do_track(args) -> int:
    graph = load_road_graph_csv(args.roads)
    region = load_geofence_csv(args.geofence) if args.geofence else None
    fixes = []
    for ln, row in read_csv_rows(args.trajectory, ("t", "x_est", "y_est")):
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
    with open(snap_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "x_raw", "y_raw", "x_snapped", "y_snapped", "reseeded"])
        for fx in snapped:
            w.writerow([fx.t, fx.position[0], fx.position[1],
                        fx.snapped[0], fx.snapped[1], int(fx.reseeded)])
    alert_path = args.out_prefix + ".alerts.csv"
    events = geofence_events(snapped, region) if region is not None else []
    with open(alert_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "event"])
        w.writerows(events)
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
        if args.command == "eval":
            report = run_eval(load_scenario(args.scenario))
            with open(args.out, "w") as f:
                f.write(report.to_json())
            for k in sorted(report.metrics):
                print(f"{k}: {report.metrics[k]}")
            print(f"wrote {args.out}")
            return EXIT_OK
        raise ScenarioError(f"unknown command {args.command!r}")
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
