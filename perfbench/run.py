"""Layered benchmark for the trajopt solvers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 0 --seconds 24

Run from the repository root; trajopt is imported from ./src.  The ops run
in worker processes, one after another and never two at once; each worker
is one closed-loop caller with no extra threads: the next op starts when
the previous one returns.  --trace 0 splits --seconds over WORKERS fresh
workers and pools their ops, so that a process's own speed (which moved
whole runs by up to 10% with the same seed) averages out; each worker also
times its own set-up.  The seed and the worker index make the scenarios;
the program sees only those.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
one worker for --seconds, each op twice, untraced and traced in alternating
order, and reports the per-layer metrics from the traced runs plus
trace.overhead_frac.  The last line of standard output is one JSON object
(correct, attempted, failed, metrics).  A report with every op and the
environment goes to perfbench/out/, and the traced run's spans next to it.
NOTES.md holds the workload reasons, the layer map and the baseline.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP before numpy loads: with two OpenBLAS threads the
# multi-agent plans ran 2.5-4x slower and took different iterates.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("batch-flow", "priest-barn", "swarm-antipodal", "mpc-single")
# measuring processes of an untraced run; each also gives one set-up time
WORKERS = 4
# plan_ms_p95 needs at least ten samples beyond the 95th percentile
P95_MIN_PLANS = 200
# timing metrics gated in BENCHMARK.json, next to setup_s and peak_rss_mb
GATED = ("plan_p50_ref", "plans_per_kref")
# setup_s is reported in seconds on a machine whose reference kernel takes
# this long (the median over the baseline runs), so machine drift cancels
REF_NOMINAL_MS = 7.5


def _import_program():
    """Put ./src first on the path and import trajopt from it, or exit 2."""
    if not (SRC / "trajopt" / "__init__.py").is_file():
        print(f"perfbench: no trajopt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import trajopt

    if Path(trajopt.__file__).resolve().parent != (SRC / "trajopt").resolve():
        print(f"perfbench: trajopt imported from {trajopt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def _environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # show_config layout differs across versions
            return "unknown"

    threads = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads[mod.__name__] = int(getattr(lib, sym)())
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": threads or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def _should_stop(begin: float, seconds: float, op_times: list) -> bool:
    if not op_times:
        return False
    # run the next op only if it would likely end before the budget plus
    # half an op, so that a worker's time stays near its budget on average
    return time.perf_counter() - begin + 0.5 * statistics.median(op_times) > seconds


def _run_with_reference(wl, op, refs: list):
    """wl.run(op), then time the reference kernel; the op's ref_ms is the
    mean of the kernel times just before and just after it."""
    result = wl.run(op)
    after = _reference_ms()
    result.ref_ms = 0.5 * (refs[-1] + after)
    refs.append(after)
    return result


def _measure(wl, ops, seconds, refs):
    """Returns (ops run, their results)."""
    ran, results, op_times = [], [], []
    begin = time.perf_counter()
    while not _should_stop(begin, seconds, op_times):
        ran.append(next(ops))
        t = time.perf_counter()
        results.append(_run_with_reference(wl, ran[-1], refs))
        op_times.append(time.perf_counter() - t)
    return ran, results


def _measure_traced(wl, ops, seconds, targets, recorder, refs):
    """Each op untraced and traced, alternating which goes first.  Returns
    (ops run, untraced, traced, absent targets, rebound namespaces)."""
    ran, untraced, traced, op_times = [], [], [], []
    absent, rebound = [], {}
    begin = time.perf_counter()
    while not _should_stop(begin, seconds, op_times):
        op = next(ops)
        ran.append(op)
        t = time.perf_counter()
        for tracing in ((False, True) if op.index % 2 == 0 else (True, False)):
            if not tracing:
                untraced.append(_run_with_reference(wl, op, refs))
                continue
            patches = spans.Patches()
            for span_name, module, qualname, observe in targets:
                patches.wrap(module, qualname, recorder.wrapper(span_name, observe))
            recorder.op_id = op.index
            try:
                traced.append(_run_with_reference(wl, op, refs))
            finally:
                patches.remove()
            absent, rebound = patches.absent, patches.rebound
        op_times.append(time.perf_counter() - t)
    return ran, untraced, traced, absent, rebound


def _strata_median(by_stratum: dict) -> float:
    return statistics.fmean(statistics.median(v) for v in by_stratum.values() if v)


def _quality(results) -> tuple:
    """The full end-to-end table for a list of op results.

    The *_ref metrics divide every plan time by the reference-kernel time
    measured around its op (OpResult.ref_ms), which takes out the machine's
    speed drift; the *_ms and *_per_s ones are the raw wall times.  The p50s
    are the mean of the medians of the op strata (Op.stratum).
    """
    ms, ref = [], []
    ms_by, ref_by = defaultdict(list), defaultdict(list)
    wall_ms = wall_ref = 0.0
    for r in results:
        # an op that raised before any timed plan counts with its wall time;
        # an episode that ran no step adds none
        times = r.step_ms or ([1000.0 * r.wall_s] if r.attempted else [])
        ms += times
        ref += [t / r.ref_ms for t in times]
        ms_by[r.stratum] += times
        ref_by[r.stratum] += [t / r.ref_ms for t in times]
        wall_ms += 1000.0 * r.wall_s
        wall_ref += 1000.0 * r.wall_s / r.ref_ms
    plans = sum(len(r.step_ms) for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.n_failed for r in results)
    successes = sum(1 for r in results if r.success and not r.failed)
    smooth = [x for r in results for x in r.smoothness]
    out = {
        "plan_p50_ref": (_strata_median(ref_by), "ref"),
        "plans_per_kref": (1000.0 * len(ms) / wall_ref, "1/kref"),
        "plan_ms_p50": (_strata_median(ms_by), "ms"),
        "plans_per_s": (1000.0 * len(ms) / wall_ms, "1/s"),
        "success_frac": (successes / len(results), "ratio"),
        "fail_frac": (failed / max(attempted, 1), "ratio"),
        "smoothness_p50": (statistics.median(smooth) if smooth else None, "m2/s4"),
        "reference_ms": (statistics.median(r.ref_ms for r in results), "ms"),
    }
    if plans >= P95_MIN_PLANS:
        out["plan_ms_p95"] = (statistics.quantiles(ms, n=20)[-1], "ms")
    counts = {"plans": plans, "ops": len(results), "success_base": len(results), "successes": successes,
              "attempted": attempted, "failed": failed}
    outcomes = [r.outcome for r in results if r.outcome]
    if outcomes:
        counts["outcomes"] = {k: outcomes.count(k) for k in sorted(set(outcomes))}
    return out, counts


@functools.cache
def _kernel_arrays():
    """The reference kernel's inputs, made once per process."""
    import numpy as np

    big = np.linspace(-1.0, 1.0, 4500 * 110).reshape(4500, 110)
    return (np.linspace(-1.0, 1.0, 40000).reshape(200, 200), np.linspace(-1.0, 1.0, 144).reshape(12, 12),
            big, np.linspace(-1.0, 1.0, 4500), np.empty_like(big))


def _reference_ms() -> float:
    """Median time of a fixed numpy + Python kernel (about 7 ms).  On a
    shared 2-core machine the solvers and this kernel both ran up to 2x
    slower for minutes at a time; timing the kernel next to every op tracks
    that drift.

    The kernel has three parts: 200x200 products with a Python loop, many
    calls on 12x12 arrays, and products and a copy of a 4 MB array.  With
    the first part alone, the ref-scaled times of the same ops differed by
    CV 0.05-0.07 between processes on swarm plans and MPC episodes, whose
    many small numpy calls slow differently; with the second part added that
    fell to 0.03-0.04.  The third stands for the solvers' large arrays (the
    4500x110 A_fo of a 10-agent swarm), which slow with memory traffic
    rather than with arithmetic; with it, swarm plans read 0.02.
    """
    import numpy as np

    a, small, big, vec, big_out = _kernel_arrays()
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(4):
            b = a @ a
            np.arctan2(b[:100], b[100:]).sum()
        sum(i * i for i in range(4000))
        for _ in range(100):
            x = small @ small
            np.sqrt(x * x + 1.0).sum()
            np.concatenate([x[0], x[1]]).max()
        for _ in range(3):
            big.T @ vec
            np.multiply(big, 1.0001, out=big_out)
        times.append(1000.0 * (time.perf_counter() - t))
    return statistics.median(times)


def _digest_changes(report_path: Path, rows: list) -> str:
    """Compare op digests with the previous report of this workload and seed."""
    if not report_path.is_file():
        return "no earlier run of this workload and seed here"
    try:
        old = {(r["worker"], r["index"]): r["digest"] for r in json.loads(report_path.read_text())["ops"]}
    except (ValueError, KeyError):
        return "earlier report unreadable"
    common = [r for r in rows if (r["worker"], r["index"]) in old]
    changed = sum(1 for r in common if r["digest"] != old[(r["worker"], r["index"])])
    return f"{changed} of {len(common)} op digests changed since the earlier run"


def _op_rows(worker, ops, results):
    return [
        {"worker": worker, "index": op.index, "scenario": op.scenario.scenario_id, "stratum": op.stratum,
         **dataclasses.asdict(r)}
        for op, r in zip(ops, results)
    ]


def run_worker(args) -> int:
    """One measuring process.  Times its own set-up (imports, the first op's
    scenario, the construction of its problem) and the reference kernel,
    warms up, runs its ops for --seconds and prints one JSON object."""
    w = _import_program()
    t_import = time.perf_counter()
    wl = w.WORKLOADS[args.workload]()
    ops = wl.make_ops(args.seed, args.worker)
    first = next(ops)
    t_gen = time.perf_counter()
    wl.construct(first)
    t_end = time.perf_counter()
    setup = {"import_s": t_import - T_START, "scenarios_s": t_gen - t_import, "construct_s": t_end - t_gen,
             "total_s": t_end - T_START, "ref_ms": _reference_ms()}
    ops = itertools.chain([first], ops)
    wl.hook()
    recorder = spans.Recorder()
    absent, rebound = [], {}
    try:
        wl.warm_up(first)
        refs = [_reference_ms()]
        if args.trace:
            ran, untraced, traced, absent, rebound = _measure_traced(
                wl, ops, args.seconds, w.TRACE_TARGETS, recorder, refs
            )
        else:
            ran, untraced = _measure(wl, ops, args.seconds, refs)
    finally:
        wl.unhook()
    out = {
        "worker": args.worker, "why": wl.why, "environment": _environment(), "setup": setup,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_kernel_ms": refs, "ops": _op_rows(args.worker, ran, untraced),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        recorder.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        _, counts = _quality([SimpleNamespace(**r) for r in out["ops"]])
        out.update(
            traced_ops=_op_rows(args.worker, ran, traced),
            layer_metrics=_layer_metrics(w, recorder, untraced, traced, counts),
            absent_targets=absent, rebound=rebound, counters=dict(recorder.counters),
            traced_untraced_digest_mismatch=sum(1 for a, b in zip(untraced, traced) if a.digest != b.digest),
        )
    print(json.dumps(out))
    return 0


def _spawn_worker(args, worker: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(worker), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=seconds + 150, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker {worker} failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    n_workers = 1 if args.trace else WORKERS
    workers = [_spawn_worker(args, j, args.seconds / n_workers) for j in range(n_workers)]
    rows = [r for wk in workers for r in wk["ops"]]
    results = [SimpleNamespace(**r) for r in rows]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.n_failed for r in results)
    quality, counts = _quality(results)
    setups = [wk["setup"] for wk in workers]
    if args.trace:
        metrics = workers[0]["layer_metrics"]
        rows = workers[0]["traced_ops"]
        failed += sum(r["n_failed"] for r in rows)
        attempted += sum(r["attempted"] for r in rows)
        mismatch = workers[0]["traced_untraced_digest_mismatch"]
    else:
        rss_mb = max(wk["rss_mb"] for wk in workers)
        # each worker's set-up is scaled by the median of all its kernel
        # times: one kernel time alone spread 3.6-6.7 ms within a run
        setup_s = statistics.median(
            wk["setup"]["total_s"] * REF_NOMINAL_MS / statistics.median(wk["reference_kernel_ms"] + [wk["setup"]["ref_ms"]])
            for wk in workers
        )
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for key in GATED:
            metrics[key] = {"value": quality[key][0], "unit": quality[key][1]}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        quality["setup_s"] = (setup_s, "s")
        quality["setup_raw_s"] = (statistics.median(p["total_s"] for p in setups), "s")
        quality["peak_rss_mb"] = (rss_mb, "MB")
        mismatch = None

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = OUT / f"{stem}.json"
    digest_note = _digest_changes(report_path, rows)
    failures = sorted({r["failed"] for r in rows if r["failed"]} | {r.failed for r in results if r.failed})
    env = workers[0]["environment"]
    why = workers[0]["why"]
    extra = {k: workers[0].get(k) for k in ("absent_targets", "rebound", "counters")}
    report = {
        "workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": setups,
        "reference_kernel_ms": [wk["reference_kernel_ms"] for wk in workers],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in quality.items()},
        "counts": counts, "metrics": metrics, "failures": failures, "ops": rows,
        **extra, "traced_untraced_digest_mismatch": mismatch,
    }
    report_path.write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why}")
    print("environment " + json.dumps(env))
    for key, (value, unit) in quality.items():
        print(f"  {key:<16} {value if value is not None else float('nan'):12.5g} {unit}")
    print("  counts " + json.dumps(counts))
    print(f"  digest: {digest_note}")
    if mismatch:
        print(f"  digest: {mismatch} ops differ between their traced and untraced runs")
    if extra["absent_targets"]:
        print(f"  absent trace targets: {', '.join(extra['absent_targets'])}")
    for key, value in sorted((extra["counters"] or {}).items()):
        if key.endswith("observe_failed"):
            print(f"  trace counter {key}: {value:g}")
    for reason in failures:
        print(f"  failure: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(w, recorder, untraced, traced, counts) -> dict:
    plans = sum(len(r.step_ms) for r in traced) or 1
    totals = recorder.layer_totals()
    metrics = {}
    for name, unit, span, fld in w.LAYER_METRICS:
        row = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        value = {"calls": row["calls"], "ms": 1000.0 * row["s"], "self_ms": 1000.0 * row["self_s"]}[fld]
        metrics[name] = {"value": value / plans, "unit": unit}
    for name, unit, num, den in w.COUNTER_METRICS:
        base = recorder.counters.get(den, 0.0) if den else plans
        metrics[name] = {"value": recorder.counters.get(num, 0.0) / base if base else 0.0, "unit": unit}
    wall_u = sum(r.wall_s for r in untraced)
    wall_t = sum(r.wall_s for r in traced)
    metrics["trace.overhead_frac"] = {"value": wall_t / wall_u - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(recorder) / plans, "unit": "count"}
    metrics["bench.plans"] = {"value": counts["plans"], "unit": "count"}
    metrics["bench.success_frac"] = {"value": counts["successes"] / counts["success_base"], "unit": "ratio"}
    metrics["bench.success_base"] = {"value": counts["success_base"], "unit": "count"}
    return metrics


def run_all(args) -> int:
    """Every workload in its own process; print the full end-to-end table."""
    code = 0
    table = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
        for key, m in report["end_to_end"].items():
            table.append((name, key, m["value"], m["unit"]))
        table.append((name, "correct", float(last["correct"]), "bool"))
        print(f"{name}: {json.dumps(report['counts'])}", flush=True)
    for name, key, value, unit in table:
        print(f"{name:<16} {key:<16} {value if value is not None else float('nan'):12.5g} {unit}")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        return run_worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
