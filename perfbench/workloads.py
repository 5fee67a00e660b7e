"""The four benchmark workloads: inputs from a seed, ops, and output checks.

Every op goes through a public trajopt entry point (``bench.run_scenario`` or
``bench.receding_horizon_run``).  The solver entry point of each workload is
hooked only to keep a reference to what it returned, so the output can be
checked independently of the solver's own flags:

* every value is finite;
* the start and goal boundary values are met (``BOUNDARY_TOL``);
* the raw scenario geometry is rechecked with ``bench.metrics``.

Ops that raise or break the first two checks are failures; the geometry
check feeds the success fraction.  A rounded digest of each op's output is
recorded so that a change in results shows, without gating on it.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from trajopt import bench
from trajopt.basis import build_basis
from trajopt.bench import runner

from spans import Patches

# Bound before any tracing is installed, so the benchmark's own output
# checks never show up as spans of the program's metrics layer.
_check_collision_free = bench.check_collision_free

# Largest boundary-value error accepted, relative to 1 + the largest
# magnitude of that derivative along the trajectory.  The saddle solves
# enforce the equalities to rounding: about 1e-13 relative, even for MPC
# plans whose accelerations reach 1e7 m/s^2 with absolute errors of 1e-6.
BOUNDARY_TOL = 1e-6
# Digest rounding: 1e-6 m.  Reordered floating point moves AM iterates by
# more than this, so a changed digest is reported, never gated on.
DIGEST_DECIMALS = 6
# A projected priest sample counts as feasible when it clears every planning
# obstacle and the speed/acceleration limits within these margins, the
# defaults of solver_batch.check_raw_feasibility.
D_MARGIN = 1e-2
KIN_MARGIN = 1e-2
# MPC goal radius, as receding_horizon_run's default.
GOAL_RADIUS = 0.5


@dataclass
class Op:
    index: int
    scenario: object
    seed: int
    # ops of one stratum are alike in size (the agent count on swarm); a
    # run's plan time is the mean of its strata's medians, so a gap between
    # their times cannot move it
    stratum: str = ""


@dataclass
class OpResult:
    """What one op did.  step_ms has one entry per plan (one per control
    step for mpc-single); wall_s is the op's whole wall time; ref_ms is the
    reference-kernel time measured around the op.  attempted and n_failed
    count plans (control steps on mpc-single), so that failed plans over
    attempted plans is a fraction of one unit; failed is the first reason."""

    step_ms: list = field(default_factory=list)
    wall_s: float = 0.0
    ref_ms: float = 1.0
    attempted: int = 1
    n_failed: int = 0
    failed: str | None = None
    success: bool = False
    smoothness: list = field(default_factory=list)
    digest: str = ""
    # mpc-single: "reached" (goal, no collision), "collided" or "stopped"
    outcome: str = ""


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for arr in arrays:
        h.update((np.round(np.asarray(arr, dtype=float), DIGEST_DECIMALS) + 0.0).tobytes())
    return h.hexdigest()[:16]


def _check_trajectory(traj, start, goal) -> str | None:
    """start/goal: {order: values} with order 0 = position, 1 = velocity,
    2 = acceleration; returns a reason when the output is broken."""
    arrays = [traj.pos, traj.vel, traj.acc] + ([traj.psi] if traj.psi is not None else [])
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite trajectory"
    samples = (traj.pos, traj.vel, traj.acc)
    for where, row, wanted in (("start", 0, start), ("goal", -1, goal)):
        for order, value in wanted.items():
            err = float(np.max(np.abs(samples[order][row] - np.asarray(value, dtype=float))))
            scale = 1.0 + float(np.max(np.abs(samples[order])))
            if not err <= BOUNDARY_TOL * scale:
                return f"{where} boundary of order {order} off by {err:.3e} (scale {scale:.3e})"
    return None


def _rest(point):
    """Boundary values of a point at rest."""
    zeros = np.zeros(len(point))
    return {0: point, 1: zeros, 2: zeros}


class Capture:
    """Keeps what a hooked solver entry point returned, with its return time."""

    def __init__(self):
        self.calls: list = []

    def make(self, fn):
        calls = self.calls

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result, time.perf_counter()))
            return result

        return captured


class Workload:
    name = ""
    why = ""
    # (module, qualname) of the solver entry point whose result is checked
    entry = ("", "")

    def __init__(self):
        self.capture = Capture()
        self.patches = Patches()

    def hook(self) -> None:
        self.patches.wrap(*self.entry, self.capture.make)
        if self.patches.absent:
            raise RuntimeError(f"solver entry point missing: {self.patches.absent}")

    def unhook(self) -> None:
        self.patches.remove()

    def make_ops(self, seed: int, worker: int = 0):
        """The ops of a seed and worker, each made when the run reaches it."""
        rng = np.random.default_rng([seed, worker])
        for k in itertools.count():
            yield self.make_op(k, rng)

    def make_op(self, k: int, rng) -> Op:
        raise NotImplementedError

    def construct(self, op: Op) -> None:
        """Build the first op's problem through the public builders (set-up)."""
        raise NotImplementedError

    def warm_up(self, op: Op) -> None:
        raise NotImplementedError

    def run(self, op: Op) -> OpResult:
        self.capture.calls.clear()
        res = OpResult()
        t0 = time.perf_counter()
        try:
            outcome = self._call(op)
        except Exception as exc:  # the op boundary: a raise is a failed op
            res.wall_s = time.perf_counter() - t0
            res.attempted, res.n_failed = self._plans_begun(), 1
            res.failed = f"{type(exc).__name__}: {exc}"
            return res
        res.wall_s = time.perf_counter() - t0
        self._check(op, outcome, t0, res)
        return res

    def _call(self, op: Op):
        raise NotImplementedError

    def _plans_begun(self) -> int:
        """Plans begun by an op that raised, the one that raised included."""
        return 1

    def _check(self, op: Op, outcome, t0: float, res: OpResult) -> None:
        raise NotImplementedError

    @staticmethod
    def _basis(scenario):
        h = scenario.horizon
        return build_basis(h.t0, h.tf, h.n_p, degree=10)


class _OneShot(Workload):
    solver = ""
    iters = 0
    warm_iters = 1

    def _call(self, op):
        return bench.run_scenario(op.scenario, self.solver, op.seed, self.iters)

    def warm_up(self, op):
        bench.run_scenario(op.scenario, self.solver, op.seed, self.warm_iters)

    def _check(self, op, record, t0, res):
        res.step_ms.append(1000.0 * res.wall_s)
        if len(self.capture.calls) != 1:
            reason = f"{len(self.capture.calls)} solver calls captured, expected 1"
        else:
            reason = self._check_solution(op, self.capture.calls[0][2], res)
        if reason is None and not np.isfinite(record.metrics.smoothness):
            reason = "non-finite smoothness"
        res.failed, res.n_failed = reason, int(reason is not None)
        if reason is None:
            res.smoothness.append(record.metrics.smoothness)

    def _check_solution(self, op, solution, res) -> str | None:
        raise NotImplementedError


class BatchFlow(_OneShot):
    name = "batch-flow"
    why = "batch on dynamic-flow, N_b=100, 50 iterations: the shared-factor path with 100 RHS per solve, factorize only on rho growth"
    entry = ("trajopt.solver_batch", "solve_batch_opt")
    solver = "batch"
    # 50 iterations instead of 100: every iteration does the same work, and
    # plans of about 1.5 s give each worker three or four of them instead
    # of two, which left a run's median at the mercy of one slow plan
    iters = 50
    warm_iters = 2

    def make_op(self, k, rng):
        return Op(k, bench.gen_scenario("dynamic-flow", seed=int(rng.integers(2**31))), int(rng.integers(2**31)))

    def construct(self, op):
        runner.batch_problem_from_scenario(op.scenario, self._basis(op.scenario))

    def _check_solution(self, op, ranked, res):
        s = op.scenario
        start, goal = np.asarray(s.boundary.start, float), np.asarray(s.boundary.goal, float)
        heading = float(np.arctan2(goal[1] - start[1], goal[0] - start[0]))
        for traj in ranked.trajectories:
            reason = _check_trajectory(traj, _rest(start), _rest(goal))
            if reason is None and max(abs(traj.psi[0] - heading), abs(traj.psi[-1] - heading)) > BOUNDARY_TOL:
                reason = "heading boundary broken"
            if reason:
                return reason
        # the plan run_scenario returns: best feasible member, else least residual
        idx = ranked.best_index if ranked.best_index is not None else int(np.argmin(ranked.residual_max))
        best = ranked.trajectories[idx]
        res.success = _check_collision_free(best, s, margin=0.0)[0]
        res.digest = _digest(best.pos, best.psi)
        return None


class PriestBarn(_OneShot):
    name = "priest-barn"
    why = "priest on barn-like, 2 outer x 30 inner: projection-dominated (polar targets + project), 110 RHS per inner iteration"
    entry = ("trajopt.solver_priest", "priest_optimize")
    solver = "priest"
    # 2 outer iterations instead of the default 13: every outer iteration
    # runs the same projection, and plans of about 1.6 s instead of 9 s
    # give each worker several ops and the reference kernel (timed between
    # ops) a closer view of machine drift.  With 13, run medians moved by
    # 13-20% between sets of ten.
    iters = 2

    def make_op(self, k, rng):
        return Op(k, bench.gen_scenario("barn-like", seed=int(rng.integers(2**31))), int(rng.integers(2**31)))

    def construct(self, op):
        basis = self._basis(op.scenario)
        runner.priest_setup_from_scenario(op.scenario, basis)
        runner.default_sampling_distribution(op.scenario, basis)

    def _check_solution(self, op, result, res):
        s = op.scenario
        traj = result.best.trajectory
        start = _rest(np.asarray(s.boundary.start, float))
        # priest pins only the goal position (end_orders=(0,))
        reason = _check_trajectory(traj, start, {0: s.boundary.goal})
        if reason:
            return reason
        res.success = _check_collision_free(traj, s, margin=0.0)[0]
        res.digest = _digest(traj.pos)
        return None


class SwarmAntipodal(_OneShot):
    name = "swarm-antipodal"
    why = "multiagent on square-antipodal, 8 and 10 agents: the dense A_fo products and solve loop, 3 RHS per solve; factorize is about 7%"
    entry = ("trajopt.solver_multiagent", "solve_joint")
    solver = "multiagent"
    iters = 200
    warm_iters = 5
    agent_cycle = (8, 10)

    def make_op(self, k, rng):
        n = self.agent_cycle[k % len(self.agent_cycle)]
        scenario = bench.gen_scenario("square-antipodal", {"n_agents": n}, seed=int(rng.integers(2**31)))
        return Op(k, scenario, int(rng.integers(2**31)), f"{n} agents")

    def construct(self, op):
        runner.multiagent_problem_from_scenario(op.scenario, self._basis(op.scenario))

    def _check_solution(self, op, sol, res):
        roster = bench.agent_boundaries(op.scenario)
        if len(sol.trajectories) != len(roster):
            return f"{len(sol.trajectories)} trajectories for {len(roster)} agents"
        for traj, (start, goal) in zip(sol.trajectories, roster):
            reason = _check_trajectory(traj, _rest(start), _rest(goal))
            if reason:
                return reason
        # raw geometry: agent centers never closer than two agent radii
        pos = np.stack([t.pos for t in sol.trajectories])  # (N_a, n_p, 3)
        gaps = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        gaps[np.arange(len(pos)), np.arange(len(pos))] = np.inf
        res.success = bool(gaps.min() >= 2.0 * op.scenario.robot.shape[0])
        res.digest = _digest(pos)
        return None


class MpcSingle(Workload):
    name = "mpc-single"
    why = "receding_horizon_run, single solver, 10-step episodes over five scene kinds: many small solves, 2-3 RHS, construction overhead"
    entry = ("trajopt.solver_single", "solve_single")
    # Episodes stop after 10 control steps.  Late steps of long episodes made
    # the per-run median depend on which scenes a seed drew: over ten seeds
    # its spread fell from 0.13-0.18 with all steps to 0.05-0.07 with only
    # each episode's first ten, and shorter episodes give more of them.
    n_steps = 10
    # (kind, generator params); episodes cycle through them
    scenes = (
        ("corridor", {}),
        ("random-static", {}),
        ("random-static", {"dim": 3}),
        ("barn-like", {}),
        ("dynamic-flow", {}),
    )

    def make_op(self, k, rng):
        kind, params = self.scenes[k % len(self.scenes)]
        return Op(k, bench.gen_scenario(kind, params, seed=int(rng.integers(2**31))), int(rng.integers(2**31)))

    def construct(self, op):
        runner.single_problem_from_scenario(op.scenario, self._basis(op.scenario))

    def warm_up(self, op):
        bench.receding_horizon_run(op.scenario, solver="single", n_steps=2, seed=op.seed)

    def _call(self, op):
        return bench.receding_horizon_run(op.scenario, solver="single", n_steps=self.n_steps, seed=op.seed)

    def _plans_begun(self):
        # the steps whose solve returned, and the step that raised
        return len(self.capture.calls) + 1

    def _check(self, op, result, t0, res):
        # a control step lasts from the previous solve's return (or the
        # episode start) to this solve's return: prediction, problem
        # construction, execution and metrics are all inside it
        calls = self.capture.calls
        broken = {}  # step index -> first reason
        last = t0
        for i, (args, kwargs, sol, t_ret) in enumerate(calls):
            res.step_ms.append(1000.0 * (t_ret - last))
            last = t_ret
            b = args[0].boundary
            start = {0: [a.p0 for a in b], 1: [a.v0 for a in b], 2: [a.a0 for a in b]}
            goal = {0: [a.p1 for a in b], 1: [a.v1 for a in b], 2: [a.a1 for a in b]}
            reason = _check_trajectory(sol.trajectory, start, goal)
            if reason:
                broken[i] = reason
        # an episode whose start is in collision runs no step
        res.attempted = len(calls)
        last_step = max(len(calls) - 1, 0)
        if len(result.records) != len(calls):
            broken.setdefault(last_step, f"{len(result.records)} step records for {len(calls)} solves")
        else:
            for i, r in enumerate(result.records):
                if not np.isfinite(r.metrics.smoothness):
                    broken.setdefault(i, "non-finite smoothness")
        ex = result.executed
        if ex is not None and not np.all(np.isfinite(ex.pos)):
            broken.setdefault(last_step, "non-finite executed path")
        if broken:
            res.attempted = max(res.attempted, 1)
            res.n_failed = len(broken)
            res.failed = broken[min(broken)]
            return
        res.smoothness = [r.metrics.smoothness for r in result.records]
        if ex is None:
            res.outcome = "collided"  # the start itself is in collision
            res.digest = _digest(op.scenario.boundary.start)
            return
        goal = np.asarray(op.scenario.boundary.goal, dtype=float)
        reached = float(np.linalg.norm(ex.pos[-1] - goal)) <= GOAL_RADIUS
        clear = _check_collision_free(ex, op.scenario, margin=0.0)[0]
        res.success = bool(reached and clear)
        res.outcome = "collided" if not clear else ("reached" if reached else "stopped")
        res.digest = _digest(ex.pos)


WORKLOADS = {w.name: w for w in (BatchFlow, PriestBarn, SwarmAntipodal, MpcSingle)}


# -- per-layer trace targets -------------------------------------------------


def _solve_batch_counts(counters, args, kwargs, result):
    factor, rhs = args[0], args[1]
    k = rhs.qs.shape[0]
    counters["qpcore.solve_batch.rhs"] += k
    # forward and back substitution through an n x n LU: 2 n^2 flops per RHS
    counters["qpcore.solve_batch.gflop_computed"] += 2.0 * factor.size**2 * k / 1e9


def _project_counts(counters, args, kwargs, result):
    setup = args[0]
    xis = np.stack([p.projected for p in result])
    ok = np.ones(len(result), dtype=bool)
    if setup.n_o:
        pos = setup.axis_samples(xis, setup.basis.P)  # (N, dim, n_p)
        delta = pos[:, None] - setup.obs_pos.transpose(0, 2, 1)[None]  # (N, n_o, dim, n_p)
        a = setup.obs_a[None, :, None]
        b = setup.obs_b[None, :, None]
        quad = np.sum(delta[:, :, :-1] ** 2, axis=2) / a**2 + delta[:, :, -1] ** 2 / b**2
        ok &= np.sqrt(quad).min(axis=(1, 2)) >= 1.0 - D_MARGIN
    for limit, mat in ((setup.v_max, setup.basis.Pdot), (setup.a_max, setup.basis.Pddot)):
        if limit is not None:
            norm = np.linalg.norm(setup.axis_samples(xis, mat), axis=1)
            ok &= norm.max(axis=1) <= limit * (1.0 + KIN_MARGIN)
    counters["solver_priest.projected"] += len(result)
    counters["solver_priest.projected_feasible"] += int(ok.sum())


def _batch_counts(counters, args, kwargs, result):
    counters["solver_batch.members"] += len(result.feasible)
    counters["solver_batch.feasible"] += int(np.sum(result.feasible))


def _joint_counts(counters, args, kwargs, result):
    counters["solver_multiagent.solves"] += 1
    counters["solver_multiagent.iterations"] += result.iterations


GEOMETRY_FUNCS = (
    "los_distance",
    "los_distance_2d",
    "angle2d",
    "angles3d",
    "closed_form_d",
    "closed_form_d_3d",
    "update_multiplier",
)

# (span name, module, qualname, observer)
TRACE_TARGETS = [
    ("qpcore.factorize", "trajopt.qpcore", "factorize", None),
    ("qpcore.solve_batch", "trajopt.qpcore", "solve_batch", _solve_batch_counts),
    ("basis.build_basis", "trajopt.basis", "build_basis", None),
    *[("geometry", "trajopt.geometry", f, None) for f in GEOMETRY_FUNCS],
    ("solver_single.solve", "trajopt.solver_single", "solve_single", None),
    ("solver_single.am_iteration", "trajopt.solver_single", "am_iteration", None),
    ("solver_single.equality_residuals", "trajopt.solver_single", "equality_residuals", None),
    ("solver_batch.solve", "trajopt.solver_batch", "solve_batch_opt", _batch_counts),
    ("solver_batch.iteration", "trajopt.solver_batch", "batch_iteration", None),
    ("solver_batch.xi_step", "trajopt.solver_batch", "batch_xi_step", None),
    ("solver_batch.heading_step", "trajopt.solver_batch", "heading_step", None),
    ("solver_batch.alpha_step", "trajopt.solver_batch", "alpha_step", None),
    ("solver_batch.d_step", "trajopt.solver_batch", "d_step", None),
    ("solver_priest.optimize", "trajopt.solver_priest", "priest_optimize", None),
    ("solver_priest.setup", "trajopt.solver_priest", "ProjectionSetup.__init__", None),
    ("solver_priest.project", "trajopt.solver_priest", "project", _project_counts),
    ("solver_priest.residual_scores", "trajopt.solver_priest", "residual_scores", None),
    ("solver_priest.cost_eval", "trajopt.solver_priest", "barn_cost", None),
    ("solver_priest.update_distribution", "trajopt.solver_priest", "update_distribution", None),
    ("solver_multiagent.solve", "trajopt.solver_multiagent", "solve_joint", _joint_counts),
    ("solver_multiagent.residuals", "trajopt.solver_multiagent", "pairwise_residuals_arrays", None),
    ("bench.runner", "trajopt.bench.runner", "run_scenario", None),
    ("bench.runner", "trajopt.bench.runner", "receding_horizon_run", None),
    ("bench.scenarios", "trajopt.bench.scenarios", "gen_scenario", None),
    ("bench.scenarios", "trajopt.bench.scenarios", "predict_obstacles", None),
    ("bench.metrics", "trajopt.bench.metrics", "eval_metrics", None),
    ("bench.metrics", "trajopt.bench.metrics", "check_collision_free", None),
    ("bench.metrics", "trajopt.bench.metrics", "clearance_lower_bound", None),
]

# (metric, unit, span name, field) read from Recorder.layer_totals, per op;
# field is 'calls', 'ms' (inclusive) or 'self_ms'
LAYER_METRICS = [
    ("solver_batch.xi_step.self_ms", "ms", "solver_batch.xi_step", "self_ms"),
    ("solver_batch.heading_step.self_ms", "ms", "solver_batch.heading_step", "self_ms"),
    ("solver_batch.iteration.self_ms", "ms", "solver_batch.iteration", "self_ms"),
    ("solver_batch.solve.self_ms", "ms", "solver_batch.solve", "self_ms"),
    ("solver_batch.alpha_step.ms", "ms", "solver_batch.alpha_step", "ms"),
    ("solver_batch.d_step.ms", "ms", "solver_batch.d_step", "ms"),
    ("solver_batch.iteration.calls", "count", "solver_batch.iteration", "calls"),
    ("solver_priest.project.calls", "count", "solver_priest.project", "calls"),
    ("solver_priest.project.self_ms", "ms", "solver_priest.project", "self_ms"),
    ("solver_priest.setup.ms", "ms", "solver_priest.setup", "ms"),
    ("solver_priest.residual_scores.ms", "ms", "solver_priest.residual_scores", "ms"),
    ("solver_priest.cost_eval.ms", "ms", "solver_priest.cost_eval", "ms"),
    ("solver_priest.update_distribution.ms", "ms", "solver_priest.update_distribution", "ms"),
    ("qpcore.solve_batch.calls", "count", "qpcore.solve_batch", "calls"),
    ("qpcore.solve_batch.ms", "ms", "qpcore.solve_batch", "ms"),
    ("qpcore.factorize.calls", "count", "qpcore.factorize", "calls"),
    ("qpcore.factorize.ms", "ms", "qpcore.factorize", "ms"),
    ("solver_multiagent.solve.self_ms", "ms", "solver_multiagent.solve", "self_ms"),
    ("solver_multiagent.residuals.ms", "ms", "solver_multiagent.residuals", "ms"),
    ("solver_single.am_iteration.calls", "count", "solver_single.am_iteration", "calls"),
    ("solver_single.am_iteration.self_ms", "ms", "solver_single.am_iteration", "self_ms"),
    ("solver_single.equality_residuals.ms", "ms", "solver_single.equality_residuals", "ms"),
    ("solver_single.solve.self_ms", "ms", "solver_single.solve", "self_ms"),
    ("basis.build_basis.calls", "count", "basis.build_basis", "calls"),
    ("basis.build_basis.ms", "ms", "basis.build_basis", "ms"),
    ("bench.scenarios.ms", "ms", "bench.scenarios", "ms"),
    ("bench.metrics.ms", "ms", "bench.metrics", "ms"),
    ("bench.runner.self_ms", "ms", "bench.runner", "self_ms"),
    ("geometry.calls", "count", "geometry", "calls"),
    ("geometry.ms", "ms", "geometry", "ms"),
]

# (metric, unit, numerator counter, denominator counter or None for per op)
COUNTER_METRICS = [
    ("qpcore.solve_batch.rhs", "count", "qpcore.solve_batch.rhs", None),
    ("qpcore.solve_batch.gflop_computed", "GFLOP", "qpcore.solve_batch.gflop_computed", None),
    ("qpcore.factorize.failed", "count", "qpcore.factorize.failed", None),
    ("solver_batch.feasible_frac", "ratio", "solver_batch.feasible", "solver_batch.members"),
    ("solver_priest.projected_feasible_frac", "ratio", "solver_priest.projected_feasible", "solver_priest.projected"),
    ("solver_multiagent.iterations", "count", "solver_multiagent.iterations", "solver_multiagent.solves"),
]
