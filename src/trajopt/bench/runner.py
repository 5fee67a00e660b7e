"""One-shot scenario runs, receding-horizon driving, and results files.

The single and batch problem builders take the robot's boundary state and
the time t_now its obstacles are predicted from; their defaults are the
scenario's rest-to-rest boundary at t_now = 0, which run_scenario plans.
Both go through _problem, which receding_horizon_run calls as well, with
each control step's state and the tracks it predicted for the step.  A step
executes one slice of its plan (EXEC_FRACTION of it), checked in one pass
against the true obstacle motion; a collision wins over GOAL_RADIUS on the
same sample.  In both entry points wall_time_ms covers the solve only:
scenario generation, problem construction, metrics and file writes are
excluded.  Floats are written with repr so identical runs produce
byte-identical rows (wall_time_ms is the one column exempt from that
guarantee).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import solver_batch, solver_multiagent, solver_priest, solver_single
from ..basis import AxisBoundary, Trajectory, build_basis, endpoints, straight_line, straight_line_coeffs
from ..geometry import EllipsoidShape, Obstacles
from .metrics import RunMetrics, eval_metrics, scaled_sq_distances
from .scenarios import ObstacleMotion, Scenario, agent_boundaries, predict_obstacles

SOLVERS = ("single", "batch", "priest", "cem", "multiagent")

# inflation of every obstacle's semi-axes for planning (meters)
PLAN_MARGIN = 0.05
# a receding-horizon episode reaches its goal within this distance (meters)
GOAL_RADIUS = 0.5
# share of the plan's samples that a receding-horizon step executes
EXEC_FRACTION = 0.1
# further sweeps a receding-horizon single step may take past step_budget
# while its plan is not clear of the raw predicted obstacles
MPC_EXTRA_SWEEPS = 220

RESULTS_COLUMNS = (
    "scenario_id",
    "solver",
    "seed",
    "success",
    "smoothness",
    "tracking",
    "arc_length",
    "iters",
    "residual_final",
    "min_clearance",
    "wall_time_ms",
)


@dataclass
class RunRecord:
    scenario_id: str
    solver: str
    seed: int
    metrics: RunMetrics
    trajectory_path: str | None = None


@dataclass
class MpcResult:
    records: list
    success: bool
    reached_goal: bool
    collided: bool
    executed: Trajectory | None
    # executed steps whose plan was not clear of the raw predicted obstacles
    uncertified_steps: int = 0


def _point_boundaries(scenario: Scenario):
    start = scenario.boundary.start
    goal = scenario.boundary.goal
    return tuple(AxisBoundary(p0=start[k], p1=goal[k]) for k in range(scenario.dim))


def _workspace_box(scenario: Scenario, pad: float = 4.0):
    pts = [scenario.boundary.start, scenario.boundary.goal] + [o.center for o in scenario.obstacles]
    pts = np.asarray(pts, dtype=float)
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def _barn_c1(scenario: Scenario):
    def c1(pva: np.ndarray) -> np.ndarray:
        return solver_priest.barn_cost(*solver_priest.pos_vel_acc(pva), scenario.boundary.start, scenario.boundary.goal)

    return c1


def _inflated(obstacles: Obstacles) -> Obstacles:
    """The obstacles with semi-axes inflated by PLAN_MARGIN for planning: the solvers converge onto the
    constraint boundary to within residual tolerance, and the inflation makes their plans clear the raw
    scenario geometry strictly."""
    return obstacles.with_axes(obstacles.a + PLAN_MARGIN, obstacles.b + PLAN_MARGIN)


def _problem(solver: str, scenario: Scenario, basis, boundary, raw: Obstacles, n_batch: int = 100):
    """The single or batch problem from boundary against the obstacles raw,
    predicted on the basis grid, inflated for planning; it tracks the
    straight line from the boundary's start to its goal.  The single
    problem carries the raw semi-axes its plan is certified against; the
    batch heading starts and ends along the line from start to goal."""
    start, goal = endpoints(boundary)
    desired = straight_line(basis, start, goal)
    if solver == "single":
        return solver_single.SingleProblem(
            basis=basis, boundary=boundary, desired=desired, obstacles=_inflated(raw), raw_axes=(raw.a, raw.b)
        )
    if scenario.dim != 2:
        raise ValueError("the batch solver is planar")
    heading = float(np.arctan2(goal[1] - start[1], goal[0] - start[0]))
    return solver_batch.BatchProblem(
        basis=basis,
        boundary=boundary,
        psi_boundary=(heading, heading),
        desired=desired,
        obstacles=_inflated(raw),
        footprint=solver_batch.FootprintSpec(offsets=tuple(scenario.robot.footprint_offsets) or (0.0,)),
        v_max=scenario.robot.v_max,
        a_max=scenario.robot.a_max,
        n_batch=n_batch,
    )


def single_problem_from_scenario(scenario: Scenario, basis, *, boundary=None, t_now: float = 0.0):
    """The single problem from boundary (default: the scenario's start and
    goal at rest) against the obstacles predicted from time t_now, inflated
    for planning; it tracks the straight line from the boundary's start to
    its goal, and carries the raw semi-axes its plan is certified against."""
    boundary = _point_boundaries(scenario) if boundary is None else boundary
    return _problem("single", scenario, basis, boundary, predict_obstacles(scenario, basis.grid.timestamps, t_now=t_now))


def batch_problem_from_scenario(scenario: Scenario, basis, n_batch: int = 100, *, boundary=None, t_now: float = 0.0):
    """The batch problem from boundary and t_now, as single_problem_from_scenario;
    the heading starts and ends along the line from start to goal."""
    boundary = _point_boundaries(scenario) if boundary is None else boundary
    return _problem("batch", scenario, basis, boundary, predict_obstacles(scenario, basis.grid.timestamps, t_now=t_now), n_batch)


def priest_setup_from_scenario(scenario: Scenario, basis):
    s_min, s_max = _workspace_box(scenario)
    return solver_priest.ProjectionSetup(
        basis=basis,
        boundary=_point_boundaries(scenario),
        obstacles=_inflated(predict_obstacles(scenario, basis.grid.timestamps)),
        v_max=scenario.robot.v_max,
        a_max=scenario.robot.a_max,
        s_min=s_min,
        s_max=s_max,
    )


def multiagent_problem_from_scenario(scenario: Scenario, basis):
    if scenario.kind != "square-antipodal":
        raise ValueError("the multiagent solver expects a square-antipodal scenario")
    roster = agent_boundaries(scenario)
    boundaries = [tuple(AxisBoundary(p0=float(s[k]), p1=float(g[k])) for k in range(3)) for s, g in roster]
    shape = EllipsoidShape(a=scenario.robot.shape[0], b=scenario.robot.shape[1])
    return solver_multiagent.MultiAgentProblem(basis=basis, boundaries=boundaries, agent_shape=shape)


def default_sampling_distribution(scenario: Scenario, basis):
    """Straight-line mean with isotropic coefficient covariance, 0.6 per coefficient."""
    mean = straight_line_coeffs(basis, scenario.boundary.start, scenario.boundary.goal).ravel()
    cov = np.eye(mean.size) * 0.6**2
    return solver_priest.SamplingDistribution(mu=mean, sigma_mat=cov)


def _timed(solve, *args, **kwargs):
    """solve(*args, **kwargs) and its wall time in milliseconds."""
    t_start = time.perf_counter()
    out = solve(*args, **kwargs)
    return out, 1000.0 * (time.perf_counter() - t_start)


def _plan(problem, params, seed: int, state=None):
    """Solve a single or batch problem with its params, from a warm state if one is given.

    Returns (trajectory, residual_norm, iterations, state, wall_ms).  A batch
    run returns its best feasible member, else its least-residual one, and
    with BatchParams.stop_on_certificate ends at its certified stop.  A
    single solve sweeps on past max_iter while its plan is uncertified, up
    to SingleParams.extra_sweeps more.
    """
    if isinstance(problem, solver_single.SingleProblem):
        sol, wall_ms = _timed(solver_single.solve_single, problem, params, state=state)
        return sol.trajectory, sol.residual_norm, sol.iterations, sol.state, wall_ms
    ranked, wall_ms = _timed(solver_batch.solve_batch_opt, problem, params, seed=seed, state=state)
    idx = ranked.best_index if ranked.best_index is not None else int(np.argmin(ranked.residual_max))
    return ranked.trajectories[idx], float(ranked.residual_norm[idx]), ranked.iterations, ranked.state, wall_ms


def run_scenario(scenario: Scenario, solver: str, seed: int, iters: int, out_dir=None) -> RunRecord:
    """Solve one scenario with one solver and assemble a RunRecord.

    success is the direct geometric check, min_clearance >= 0 against the
    raw obstacles (for multiagent, the least pair distance against the agent
    diameter); convergence is reported separately through residual_final.
    batch and multiagent stop at their certificates (BatchParams.
    stop_on_certificate: a stationary best candidate that passes the raw
    feasibility check; JointParams.stop_on_certificate: a residual that
    proves clearance), so for them iters and residual_final are those of
    the certified stop, at most iters; a batch run with no such member runs
    all of iters.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, degree=10)

    if solver in ("single", "batch"):
        if solver == "single":
            problem, params = single_problem_from_scenario(scenario, basis), solver_single.SingleParams(max_iter=iters)
        else:
            problem = batch_problem_from_scenario(scenario, basis)
            params = solver_batch.BatchParams(max_iter=iters, stop_on_certificate=True)
        traj, residual, iterations, _, wall_ms = _plan(problem, params, seed)
    elif solver in ("priest", "cem"):
        setup = priest_setup_from_scenario(scenario, basis)
        dist = default_sampling_distribution(scenario, basis)
        c1 = _barn_c1(scenario)
        if solver == "priest":
            params = solver_priest.PriestParams(n_outer=iters, seed=seed)
            result, wall_ms = _timed(solver_priest.priest_optimize, setup, c1, dist, params)
            traj = result.best.trajectory
            residual = float(result.best.residual)
            iterations = params.n_outer
        else:
            params = solver_priest.CemParams(iterations=iters, seed=seed)
            result, wall_ms = _timed(solver_priest.cem_optimize, setup, c1, dist, params)
            traj = result.best_trajectory
            residual = float(solver_priest.residual_scores(setup, result.best_xi[None])[0])
            iterations = params.iterations
    else:  # multiagent
        problem = multiagent_problem_from_scenario(scenario, basis)
        params = solver_multiagent.JointParams(max_iter=iters, stop_on_certificate=True)
        sol, wall_ms = _timed(solver_multiagent.solve_joint, problem, params)
        traj = sol.trajectories[0]
        residual = sol.residual_norm
        iterations = sol.iterations

    metrics = eval_metrics(traj, scenario, straight_line(basis, scenario.boundary.start, scenario.boundary.goal))
    metrics.iters = iterations
    metrics.residual_final = residual
    metrics.wall_time_ms = wall_ms
    if solver == "multiagent":
        metrics.min_clearance = sol.min_pair_distance - 2.0 * problem.agent_shape.a
        metrics.success = bool(sol.min_pair_distance >= 2.0 * problem.agent_shape.a)
    else:
        metrics.success = metrics.min_clearance >= 0.0

    record = RunRecord(scenario_id=scenario.scenario_id, solver=solver, seed=seed, metrics=metrics)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump = out_dir / f"{scenario.scenario_id}_{solver}_{seed}_traj.csv"
        write_trajectory_csv(dump, traj, dim=scenario.dim, psi=traj.psi)
        record.trajectory_path = str(dump)
        write_results_csv(out_dir / "results.csv", [record])
    return record


def write_trajectory_csv(path, traj: Trajectory, dim: int, psi=None) -> None:
    """Dump columns t, x, y, z, psi (blank z for planar, blank psi if absent)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z", "psi"])
        for i, t in enumerate(traj.t):
            row = [repr(float(t)), repr(float(traj.pos[i, 0])), repr(float(traj.pos[i, 1]))]
            row.append(repr(float(traj.pos[i, 2])) if dim == 3 else "")
            row.append(repr(float(psi[i])) if psi is not None else "")
            writer.writerow(row)


def _format_value(key, value):
    if key == "success":
        return "true" if value else "false"
    if key in ("scenario_id", "solver"):
        return str(value)
    if key in ("seed", "iters"):
        return str(int(value))
    return repr(float(value))


def write_results_csv(path, records: list) -> None:
    """Append records to a results file, writing the header first if it is new."""
    path = Path(path)
    fresh = not path.exists()
    with open(path, "w" if fresh else "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(RESULTS_COLUMNS)
        for rec in records:
            row = {
                "scenario_id": rec.scenario_id,
                "solver": rec.solver,
                "seed": rec.seed,
                **rec.metrics.__dict__,
            }
            writer.writerow([_format_value(col, row[col]) for col in RESULTS_COLUMNS])


def read_results_csv(path) -> list:
    """Parse a results file back into (scenario_id, solver, seed, RunMetrics) records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            metrics = RunMetrics(
                smoothness=float(row["smoothness"]),
                tracking=float(row["tracking"]),
                arc_length=float(row["arc_length"]),
                success=row["success"] == "true",
                iters=int(row["iters"]),
                residual_final=float(row["residual_final"]),
                min_clearance=float(row["min_clearance"]),
                wall_time_ms=float(row["wall_time_ms"]),
            )
            out.append(RunRecord(scenario_id=row["scenario_id"], solver=row["solver"], seed=int(row["seed"]), metrics=metrics))
    return out


def _collides(scenario: Scenario | ObstacleMotion, pos: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether each sample pos[i] lies inside an obstacle at its true position at time t[i].

    The obstacles of the scenario (or of the ObstacleMotion read from it)
    are predicted at [0, t...] from time 0, so each sample's
    offset is t[i] itself, and every sample is tested in one pass against
    the last len(t) samples of the tracks.
    """
    obstacles = predict_obstacles(scenario, np.concatenate(([0.0], t)))
    return np.any(scaled_sq_distances(pos, obstacles) < 1.0, axis=0)


def receding_horizon_run(
    scenario: Scenario,
    solver: str = "single",
    step_budget: int = 40,
    n_steps: int = 30,
    seed: int = 0,
) -> MpcResult:
    """Receding-horizon loop: re-predict obstacles, warm-start multipliers,
    execute the first trajectory segment.

    Each control step builds its problem as single_problem_from_scenario
    or batch_problem_from_scenario (50 members) do, from the robot's
    executed state and the current time, and warm-starts from the last
    step's state.
    The single solver's warm state is first shifted by the executed samples
    (solver_single.shift_state), so each step starts from the rest of the
    last plan; the batch state is handed on as it is.
    step_budget is the solve's max_iter.  A batch step runs all of it, with
    no certified stop: with the stop, one fewer of 24 planar episodes
    reached its goal.  The budget does not cap a single step: a single plan
    that is not clear of the raw predicted obstacles at the budget is swept
    on, in the same solve, up to MPC_EXTRA_SWEEPS more sweeps, until it is.  A step's wall_time_ms covers
    its solve only, and MpcResult.uncertified_steps counts the steps whose
    plan was executed though not clear (min_clearance < 0 against the
    obstacles as predicted for the plan's times).  The executed segment is
    the plan's next EXEC_FRACTION of samples, one slice, checked in one
    pass against the true obstacle motion at the executed times.  It ends
    at its first sample that collides or lies within GOAL_RADIUS of the
    goal, and the episode with it; a collision wins over the goal on the
    same sample.
    An episode reads the scenario's obstacles once, at its start
    (ObstacleMotion.of): a change to the scenario's obstacles while it runs
    does not reach its steps.  What the episode never changes (the basis
    with its Gram blocks and boundary rows, the obstacles' positions,
    velocities and semi-axes) is built once; a step rebuilds only what
    moves: the boundary values, the desired line and the obstacle tracks
    predicted from its t_now, checked once and shared by the problem, its
    inflated copy and the step record's clearance.
    Failures are recorded, not raised.
    """
    if solver not in ("single", "batch"):
        raise ValueError("receding-horizon driving supports the single and batch solvers")
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, degree=10)
    n_exec = max(1, int(round(EXEC_FRACTION * basis.n_p)))
    # the running clock's increments; its first entry is set to each step's t_abs
    clock = np.full(n_exec + 1, basis.grid.dt)
    if solver == "single":
        params = solver_single.SingleParams(max_iter=step_budget, extra_sweeps=MPC_EXTRA_SWEEPS)
    else:
        params = solver_batch.BatchParams(max_iter=step_budget)

    goal = np.asarray(scenario.boundary.goal, dtype=float)
    pos = np.asarray(scenario.boundary.start, dtype=float)
    vel = np.zeros(scenario.dim)
    acc = np.zeros(scenario.dim)
    t_abs = 0.0
    motion = ObstacleMotion.of(scenario)

    records: list[RunRecord] = []
    executed_pos = [pos[None]]
    executed_t = [np.zeros(1)]
    collided = bool(_collides(motion, pos[None], np.zeros(1))[0])
    reached = False
    warm_state = None
    uncertified = 0

    for step in range(n_steps):
        if collided or reached:
            break
        boundary = tuple(
            AxisBoundary(p0=pos[k], v0=vel[k], a0=acc[k], p1=goal[k]) for k in range(scenario.dim)
        )
        raw = predict_obstacles(motion, basis.grid.timestamps, t_now=t_abs)
        problem = _problem(solver, scenario, basis, boundary, raw, n_batch=50)
        traj, residual, iters, warm_state, wall_ms = _plan(problem, params, seed, warm_state)
        # the plan is scored against the obstacles as predicted for its own times
        metrics = eval_metrics(traj, raw, problem.desired)
        uncertified += not metrics.min_clearance >= 0.0
        metrics.iters = iters
        metrics.residual_final = residual
        metrics.wall_time_ms = wall_ms

        # execute the first segment against the true obstacle motion; cumsum
        # adds dt to t_abs one sample at a time, as a running clock would
        clock[0] = t_abs
        t = np.cumsum(clock)[1:]
        segment = traj.pos[1 : n_exec + 1]
        collides = _collides(motion, segment, t)
        near_goal = np.linalg.norm(segment - goal, axis=1) <= GOAL_RADIUS
        stops = np.flatnonzero(collides | near_goal)
        n = stops[0] + 1 if stops.size else n_exec
        collided = bool(collides[n - 1])
        reached = bool(near_goal[n - 1]) and not collided
        pos, vel, acc, t_abs = traj.pos[n], traj.vel[n], traj.acc[n], float(t[n - 1])
        executed_pos.append(segment[:n])
        executed_t.append(t[:n])
        if solver == "single" and not (collided or reached):  # a continuing step executes n_exec samples
            solver_single.shift_state(warm_state, n)

        metrics.success = reached
        records.append(
            RunRecord(scenario_id=f"{scenario.scenario_id}#step{step}", solver=solver, seed=seed, metrics=metrics)
        )

    executed = None
    if records:
        p, t = np.concatenate(executed_pos), np.concatenate(executed_t)
        v = np.gradient(p, t, axis=0)
        executed = Trajectory(t=t, pos=p, vel=v, acc=np.gradient(v, t, axis=0))
    return MpcResult(records=records, success=reached, reached_goal=reached, collided=collided, executed=executed, uncertified_steps=uncertified)
