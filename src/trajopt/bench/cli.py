"""Command-line interface: generate scenarios, run solvers, summarize results."""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

from .runner import SOLVERS, read_results_csv, run_scenario
from .scenarios import KINDS, gen_scenario, load_scenario, save_scenario


def _cmd_gen(args) -> int:
    scenario = gen_scenario(args.kind, seed=args.seed)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    record = run_scenario(scenario, solver=args.solver, seed=args.seed, iters=args.iters, out_dir=args.out)
    m = record.metrics
    print(
        f"{record.scenario_id} solver={record.solver} seed={record.seed} "
        f"success={str(m.success).lower()} smoothness={m.smoothness:.6g} "
        f"tracking={m.tracking:.6g} arc={m.arc_length:.6g} residual={m.residual_final:.3g}"
    )
    return 0


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    files = sorted(in_dir.rglob("results.csv"))
    if not files:
        print(f"no results.csv found under {in_dir}", file=sys.stderr)
        return 1
    records = []
    for f in files:
        records.extend(read_results_csv(f))
    groups = defaultdict(list)
    for rec in records:
        groups[(rec.scenario_id, rec.solver)].append(rec)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario_id", "solver", "runs", "successes", "success_rate", "mean_smoothness", "mean_tracking", "mean_arc_length", "mean_wall_time_ms"]
        )
        for (sid, solver), recs in sorted(groups.items()):
            n = len(recs)
            wins = sum(1 for r in recs if r.metrics.success)
            writer.writerow(
                [
                    sid,
                    solver,
                    n,
                    wins,
                    repr(wins / n),
                    repr(sum(r.metrics.smoothness for r in recs) / n),
                    repr(sum(r.metrics.tracking for r in recs) / n),
                    repr(sum(r.metrics.arc_length for r in recs) / n),
                    repr(sum(r.metrics.wall_time_ms for r in recs) / n),
                ]
            )
    print(f"wrote {args.out} ({len(records)} records, {len(groups)} groups)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajopt", description="trajectory optimization benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a scenario file")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_run = sub.add_parser("run", help="run one solver on a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--solver", required=True, choices=SOLVERS)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--iters", type=int, default=100)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="aggregate results files into a summary")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # rejected input or an unreadable file: one line and status 2, as argparse
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
