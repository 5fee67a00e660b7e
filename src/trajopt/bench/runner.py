"""One-shot scenario runs, receding-horizon driving, and results files.

The single and batch problem builders take the robot's boundary state and
the time t_now its obstacles are predicted from; their defaults are the
scenario's rest-to-rest boundary at t_now = 0, which run_scenario plans, and
receding_horizon_run passes each control step's state and time.  In both
entry points wall_time_ms covers the solve only: scenario generation,
problem construction, metrics and file writes are excluded.  Floats are
written with repr so identical runs produce byte-identical rows
(wall_time_ms is the one column exempt from that guarantee).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import solver_batch, solver_multiagent, solver_priest, solver_single
from ..basis import AxisBoundary, Trajectory, build_basis, straight_line_coeffs
from ..geometry import EllipsoidShape, Obstacles, scaled_sq_norm
from .metrics import RunMetrics, eval_metrics
from .scenarios import Scenario, agent_boundaries, predict_obstacles

SOLVERS = ("single", "batch", "priest", "cem", "multiagent")

# inflation of every obstacle's semi-axes for planning (meters)
PLAN_MARGIN = 0.05

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


def _endpoints(boundary):
    """Start and goal positions of per-axis boundaries."""
    return np.array([bc.p0 for bc in boundary], dtype=float), np.array([bc.p1 for bc in boundary], dtype=float)


def _desired_line(boundary, basis):
    start, goal = _endpoints(boundary)
    frac = np.linspace(0.0, 1.0, basis.n_p)[:, None]
    return start[None, :] + frac * (goal - start)[None, :]


def _point_boundaries(scenario: Scenario):
    start = scenario.boundary.start
    goal = scenario.boundary.goal
    return tuple(AxisBoundary(p0=start[k], p1=goal[k]) for k in range(scenario.dim))


def _workspace_box(scenario: Scenario, pad: float = 4.0):
    pts = [scenario.boundary.start, scenario.boundary.goal] + [o.center for o in scenario.obstacles]
    pts = np.asarray(pts, dtype=float)
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def _barn_c1(scenario: Scenario):
    start = np.asarray(scenario.boundary.start, dtype=float)
    goal = np.asarray(scenario.boundary.goal, dtype=float)

    def c1(pva: np.ndarray) -> np.ndarray:
        return solver_priest.barn_cost(*solver_priest.pos_vel_acc(pva), start, goal)

    return c1


def _inflated_obstacles(scenario: Scenario, timestamps, t_now: float = 0.0) -> Obstacles:
    """The predicted obstacles with semi-axes inflated by PLAN_MARGIN for planning: the solvers converge
    onto the constraint boundary to within residual tolerance, and the inflation makes their plans clear
    the raw scenario geometry strictly."""
    obstacles = predict_obstacles(scenario, timestamps, t_now=t_now)
    return Obstacles(obstacles.centres, obstacles.a + PLAN_MARGIN, obstacles.b + PLAN_MARGIN)


def single_problem_from_scenario(scenario: Scenario, basis, *, boundary=None, t_now: float = 0.0):
    """The single problem from boundary (default: the scenario's start and
    goal at rest) against the obstacles predicted from time t_now; it tracks
    the straight line from the boundary's start to its goal."""
    boundary = _point_boundaries(scenario) if boundary is None else boundary
    return solver_single.SingleProblem(
        basis=basis,
        boundary=boundary,
        desired=_desired_line(boundary, basis),
        obstacles=_inflated_obstacles(scenario, basis.grid.timestamps, t_now=t_now),
    )


def batch_problem_from_scenario(scenario: Scenario, basis, n_batch: int = 100, *, boundary=None, t_now: float = 0.0):
    """The batch problem from boundary and t_now, as single_problem_from_scenario;
    the heading starts and ends along the line from start to goal."""
    if scenario.dim != 2:
        raise ValueError("the batch solver is planar")
    boundary = _point_boundaries(scenario) if boundary is None else boundary
    offsets = tuple(scenario.robot.footprint_offsets) or (0.0,)
    start, goal = _endpoints(boundary)
    heading = float(np.arctan2(goal[1] - start[1], goal[0] - start[0]))
    return solver_batch.BatchProblem(
        basis=basis,
        boundary=boundary,
        psi_boundary=(heading, heading),
        desired=_desired_line(boundary, basis),
        obstacles=_inflated_obstacles(scenario, basis.grid.timestamps, t_now=t_now),
        footprint=solver_batch.FootprintSpec(offsets=offsets),
        v_max=scenario.robot.v_max,
        a_max=scenario.robot.a_max,
        n_batch=n_batch,
    )


def priest_setup_from_scenario(scenario: Scenario, basis, rho: float = 1.0):
    s_min, s_max = _workspace_box(scenario)
    return solver_priest.ProjectionSetup(
        basis=basis,
        boundary=_point_boundaries(scenario),
        obstacles=_inflated_obstacles(scenario, basis.grid.timestamps),
        v_max=scenario.robot.v_max,
        a_max=scenario.robot.a_max,
        s_min=s_min,
        s_max=s_max,
        rho=rho,
    )


def multiagent_problem_from_scenario(scenario: Scenario, basis):
    if scenario.kind != "square-antipodal":
        raise ValueError("the multiagent solver expects a square-antipodal scenario")
    roster = agent_boundaries(scenario)
    boundaries = [tuple(AxisBoundary(p0=float(s[k]), p1=float(g[k])) for k in range(3)) for s, g in roster]
    shape = EllipsoidShape(a=scenario.robot.shape[0], b=scenario.robot.shape[1])
    return solver_multiagent.MultiAgentProblem(basis=basis, boundaries=boundaries, agent_shape=shape)


def default_sampling_distribution(scenario: Scenario, basis, spread: float = 0.6):
    """Straight-line mean with isotropic coefficient covariance."""
    start = np.asarray(scenario.boundary.start, dtype=float)
    goal = np.asarray(scenario.boundary.goal, dtype=float)
    mean = straight_line_coeffs(basis, start, goal).ravel()
    cov = np.eye(mean.size) * spread**2
    return solver_priest.SamplingDistribution(mu=mean, sigma_mat=cov)


def _timed(solve, *args, **kwargs):
    """solve(*args, **kwargs) and its wall time in milliseconds."""
    t_start = time.perf_counter()
    out = solve(*args, **kwargs)
    return out, 1000.0 * (time.perf_counter() - t_start)


def _plan(solver: str, problem, max_iter: int, seed: int, state=None):
    """Solve a single or batch problem, from a warm state if one is given.

    Returns (trajectory, residual_norm, iterations, state, wall_ms).  A batch
    run returns its best feasible member, else its least-residual one.
    """
    if state is not None:
        state.iteration = 0
    if solver == "single":
        params = solver_single.SingleParams(max_iter=max_iter)
        sol, wall_ms = _timed(solver_single.solve_single, problem, params, state=state)
        return sol.trajectory, sol.residual_norm, sol.iterations, sol.state, wall_ms
    params = solver_batch.BatchParams(max_iter=max_iter)
    ranked, wall_ms = _timed(solver_batch.solve_batch_opt, problem, params, seed=seed, state=state)
    idx = ranked.best_index if ranked.best_index is not None else int(np.argmin(ranked.residual_max))
    return ranked.trajectories[idx], float(ranked.residual_norm[idx]), ranked.iterations, ranked.state, wall_ms


def run_scenario(scenario: Scenario, solver: str, seed: int, iters: int, out_dir=None) -> RunRecord:
    """Solve one scenario with one solver and assemble a RunRecord.

    success is the direct geometric check, min_clearance >= 0 against the
    raw obstacles (for multiagent, the least pair distance against the agent
    diameter); convergence is reported separately through residual_final.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, degree=10)

    if solver in ("single", "batch"):
        build = single_problem_from_scenario if solver == "single" else batch_problem_from_scenario
        traj, residual, iterations, _, wall_ms = _plan(solver, build(scenario, basis), iters, seed)
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
        sol, wall_ms = _timed(solver_multiagent.solve_joint, problem, solver_multiagent.JointParams(max_iter=iters))
        traj = sol.trajectories[0]
        residual = sol.residual_norm
        iterations = sol.iterations

    metrics = eval_metrics(traj, scenario, _desired_line(_point_boundaries(scenario), basis))
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


def write_results_csv(path, records: list, append: bool = True) -> None:
    path = Path(path)
    fresh = not (append and path.exists())
    mode = "w" if fresh else "a"
    with open(path, mode, newline="") as fh:
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


def _collision_check(scenario: Scenario):
    """in_collision(pos, t_abs): whether pos lies inside an obstacle at its true
    position at time t_abs.  The obstacle arrays are built once, here."""
    obstacles = scenario.obstacles
    centers = np.array([obs.center for obs in obstacles])
    velocities = np.array([obs.velocity for obs in obstacles])
    a = np.array([obs.a for obs in obstacles])
    b = np.array([obs.b for obs in obstacles])

    def in_collision(pos: np.ndarray, t_abs: float) -> bool:
        if not obstacles:
            return False
        return bool(np.any(scaled_sq_norm((pos - (centers + velocities * t_abs)).T, a, b) < 1.0))

    return in_collision


def receding_horizon_run(
    scenario: Scenario,
    solver: str = "single",
    step_budget: int = 40,
    n_steps: int = 30,
    goal_radius: float = 0.5,
    exec_fraction: float = 0.1,
    seed: int = 0,
) -> MpcResult:
    """Receding-horizon loop: re-predict obstacles, warm-start multipliers,
    execute the first trajectory segment.

    Each control step builds its problem with single_problem_from_scenario
    or batch_problem_from_scenario (50 members) from the robot's executed
    state and the current time, and warm-starts from the last step's state.
    step_budget caps solver iterations per control loop; a step's
    wall_time_ms covers its solve only.  Terminates on goal proximity or
    collision of the executed path; failures are recorded, not raised.
    """
    if solver not in ("single", "batch"):
        raise ValueError("receding-horizon driving supports the single and batch solvers")
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, degree=10)
    n_exec = max(1, int(round(exec_fraction * basis.n_p)))
    dt = basis.grid.dt

    goal = np.asarray(scenario.boundary.goal, dtype=float)
    pos = np.asarray(scenario.boundary.start, dtype=float).copy()
    vel = np.zeros(scenario.dim)
    acc = np.zeros(scenario.dim)
    t_abs = 0.0

    records: list[RunRecord] = []
    executed_pos = [pos.copy()]
    executed_t = [0.0]
    in_collision = _collision_check(scenario)
    collided = in_collision(pos, t_abs)
    reached = False
    warm_state = None

    for step in range(n_steps):
        if collided or reached:
            break
        boundary = tuple(
            AxisBoundary(p0=pos[k], v0=vel[k], a0=acc[k], p1=goal[k]) for k in range(scenario.dim)
        )
        if solver == "single":
            problem = single_problem_from_scenario(scenario, basis, boundary=boundary, t_now=t_abs)
        else:
            problem = batch_problem_from_scenario(scenario, basis, n_batch=50, boundary=boundary, t_now=t_abs)
        traj, residual, iters, warm_state, wall_ms = _plan(solver, problem, step_budget, seed, warm_state)
        # the plan is scored against the obstacles as predicted for its own times
        metrics = eval_metrics(traj, scenario, problem.desired, t_now=t_abs)
        metrics.iters = iters
        metrics.residual_final = residual
        metrics.wall_time_ms = wall_ms

        # execute the first segment against the true obstacle motion
        for i in range(1, n_exec + 1):
            pos = traj.pos[i].copy()
            vel = traj.vel[i].copy()
            acc = traj.acc[i].copy()
            t_abs += dt
            executed_pos.append(pos.copy())
            executed_t.append(t_abs)
            if in_collision(pos, t_abs):
                collided = True
                break
            if np.linalg.norm(pos - goal) <= goal_radius:
                reached = True
                break

        metrics.success = reached and not collided
        records.append(
            RunRecord(scenario_id=f"{scenario.scenario_id}#step{step}", solver=solver, seed=seed, metrics=metrics)
        )

    success = reached and not collided
    if records:
        records[-1].metrics.success = success
    executed = None
    if len(executed_pos) > 1:
        p = np.vstack(executed_pos)
        v = np.gradient(p, np.asarray(executed_t), axis=0)
        a = np.gradient(v, np.asarray(executed_t), axis=0)
        executed = Trajectory(t=np.asarray(executed_t), pos=p, vel=v, acc=a)
    return MpcResult(records=records, success=success, reached_goal=reached, collided=collided, executed=executed)
