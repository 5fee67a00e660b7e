"""Tests of the benchmark itself (not part of the trajopt suite).

    python3 -m pytest -q perfbench/tests

Each worker runs one op (``--seconds 0``): the end-to-end run must emit
every metric named in BENCHMARK.json with its unit, and two traced runs must
repeat the exact counts.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

# counts a traced run must repeat exactly for the same seed and op count
EXACT = (
    "qpcore.factorize.calls",
    "qpcore.solve_batch.calls",
    "qpcore.solve_batch.rhs",
    "solver_batch.iteration.calls",
    "solver_single.am_iteration.calls",
    "solver_multiagent.iterations",
    "solver_priest.project.calls",
    "bench.plans",
    "bench.success_frac",
    "bench.success_base",
)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _check_metrics(result, spec_metrics):
    wanted = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_emits_every_metric(workload):
    result = _result(_run("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "0"))
    _check_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for value in result["metrics"].values():
        assert value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts(workload):
    first = _result(_run("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1"))
    second = _result(_run("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1"))
    _check_metrics(first, SPEC["per_layer"])
    assert first["correct"] is True and second["correct"] is True
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert (BENCH_DIR / "out" / f"{workload}-seed{SEED}.spans.jsonl").stat().st_size > 0


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_patches_rebind_every_namespace_and_restore():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    from trajopt import geometry, solver_single

    original = geometry.angle2d
    recorder = spans.Recorder()
    patches = spans.Patches()
    patches.wrap("trajopt.geometry", "angle2d", recorder.wrapper("geometry"))
    patches.wrap("trajopt.geometry", "no_such_function", recorder.wrapper("geometry"))
    try:
        assert solver_single.angle2d is geometry.angle2d is not original
        solver_single.angle2d(1.0, 1.0)
        assert recorder.layer_totals()["geometry"]["calls"] == 1
        assert patches.absent == ["trajopt.geometry.no_such_function"]
    finally:
        patches.remove()
    assert solver_single.angle2d is original and geometry.angle2d is original


def _mpc_step(broken=False):
    """A captured solve of a 2-D control step at rest, its goal met unless broken."""
    from types import SimpleNamespace as NS

    import numpy as np

    axes = tuple(NS(p0=0.0, v0=0.0, a0=0.0, p1=1.0, v1=0.0, a1=0.0) for _ in range(2))
    pos = np.linspace(0.0, 1.0, 5)[:, None].repeat(2, axis=1)
    if broken:
        pos[-1] += 0.5
    traj = NS(pos=pos, vel=np.zeros_like(pos), acc=np.zeros_like(pos), psi=None)
    return (NS(boundary=axes),), {}, NS(trajectory=traj), 0.0


def test_mpc_failures_and_attempts_count_control_steps():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from types import SimpleNamespace as NS

    import workloads

    wl = workloads.MpcSingle()
    wl.capture.calls[:] = [_mpc_step(), _mpc_step(broken=True), _mpc_step(broken=True)]
    records = [NS(metrics=NS(smoothness=1.0)) for _ in range(3)]
    res = workloads.OpResult()
    wl._check(None, NS(records=records, executed=None), 0.0, res)
    assert (res.attempted, res.n_failed) == (3, 2)
    assert res.failed.startswith("goal boundary")

    class Raising(workloads.MpcSingle):
        def _call(self, op):
            self.capture.calls += [_mpc_step(), _mpc_step()]
            raise RuntimeError("third step")

    res = Raising().run(None)
    assert (res.attempted, res.n_failed) == (3, 1)
