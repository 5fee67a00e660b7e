"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from trajopt import bench, qpcore, solver_batch, solver_multiagent, solver_priest, solver_single
from trajopt.basis import boundary_matrix, build_basis, straight_line_coeffs
from trajopt.bench import check_collision_free, gen_scenario
from trajopt.bench.runner import (
    batch_problem_from_scenario,
    default_sampling_distribution,
    multiagent_problem_from_scenario,
    priest_setup_from_scenario,
    single_problem_from_scenario,
    _barn_c1,
)


def _report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_qp_oracle_equivalence():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_v = int(rng.integers(2, 21))
        n_eq = int(rng.integers(1, min(n_v, 7)))
        M = rng.normal(size=(n_v, n_v))
        Q = M @ M.T + np.eye(n_v)
        A = rng.normal(size=(n_eq, n_v))
        q = rng.normal(size=n_v)
        b = rng.normal(size=n_eq)
        factor = qpcore.factorize(Q, A)
        xi, nu = qpcore.solve(factor, q, b)
        K = np.block([[Q, A.T], [A, np.zeros((n_eq, n_eq))]])
        dense = np.linalg.solve(K, np.concatenate([-q, b]))
        worst = max(worst, float(np.max(np.abs(np.concatenate([xi, nu]) - dense))))
    elapsed = time.perf_counter() - t0
    _report(1, "qp-core oracle equivalence", worst <= 1e-9 and elapsed < 5.0, f"max-abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_batch_transparency():
    rng = np.random.default_rng(1)
    n_v, n_eq, n_b = 16, 5, 500
    M = rng.normal(size=(n_v, n_v))
    Q = M @ M.T + np.eye(n_v)
    A = rng.normal(size=(n_eq, n_v))
    t0 = time.perf_counter()
    before = qpcore.factorization_count()
    factor = qpcore.factorize(Q, A)
    qs = rng.normal(size=(n_b, n_v))
    bs = rng.normal(size=(n_b, n_eq))
    xis, nus = qpcore.solve_batch(factor, qpcore.BatchRHS(qs=qs, bs=bs))
    worst = 0.0
    for i in range(n_b):
        xi, nu = qpcore.solve(factor, qs[i], bs[i])
        worst = max(worst, float(np.max(np.abs(xis[i] - xi))), float(np.max(np.abs(nus[i] - nu))))
    factorizations = qpcore.factorization_count() - before
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and factorizations == 1 and elapsed < 5.0
    _report(2, "batch transparency", ok, f"max dev {worst:.2e}, {factorizations} factorization, {elapsed:.1f}s")


def test_criterion_03_single_solver_corridor_convergence():
    t0 = time.perf_counter()
    scenario = gen_scenario("corridor", {"n_o": 10, "n_p": 100}, seed=0)
    basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
    problem = single_problem_from_scenario(scenario, basis)
    sol = solver_single.solve_single(problem, solver_single.SingleParams(max_iter=500, tol=0.0))
    hist = [h["max_abs"] for h in sol.residual_history]
    at300 = min(hist[:300])
    at500 = min(hist)
    free, worst = check_collision_free(sol.trajectory, scenario, margin=0.0)
    elapsed = time.perf_counter() - t0
    ok = at300 <= 1e-2 and at500 <= 5e-3 and free and elapsed < 30.0
    _report(
        3,
        "corridor convergence",
        ok,
        f"res@300 {at300:.2e} <= 1e-2, res@500 {at500:.2e} <= 5e-3, collision-free {free}, {elapsed:.1f}s",
    )


def _median_iteration_time(n_o, iters=250):
    scenario = gen_scenario("corridor", {"n_o": n_o, "n_p": 100}, seed=0)
    basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
    problem = single_problem_from_scenario(scenario, basis)
    state = solver_single.init_state(problem)
    solver_single.am_iteration(state, problem)  # warm the factor cache
    times = []
    for _ in range(iters):
        start = time.perf_counter()
        solver_single.am_iteration(state, problem)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), state.factors.factor.size


def test_criterion_04_sublinear_per_iteration_scaling():
    t0 = time.perf_counter()
    ratio, dims_ok = np.inf, False
    for _attempt in range(3):  # timing noise tolerance: best of three
        t10, k10 = _median_iteration_time(10)
        t20, k20 = _median_iteration_time(20)
        dims_ok = k10 == k20
        ratio = min(ratio, t20 / t10)
        if ratio <= 1.8:
            break
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.8 and dims_ok and elapsed < 60.0
    _report(4, "sub-linear obstacle scaling", ok, f"per-iter ratio {ratio:.2f} <= 1.8, KKT dims equal {dims_ok}, {elapsed:.1f}s")


def test_criterion_05_batch_residual_convergence():
    t0 = time.perf_counter()
    feasible_seeds = 0
    trend_ok = True
    for seed in range(10):
        scenario = gen_scenario("random-static", {"n_o": 10}, seed=seed)
        basis = build_basis(scenario.horizon.t0, scenario.horizon.tf, scenario.horizon.n_p, 10)
        problem = batch_problem_from_scenario(scenario, basis, n_batch=100)
        ranked = solver_batch.solve_batch_opt(problem, solver_batch.BatchParams(max_iter=100), seed=seed)
        feasible_seeds += ranked.best_index is not None
        norms = np.array([h["norm"] for h in ranked.best_history])
        w, burn = 5, 20
        windows = np.array([norms[k : k + w].mean() for k in range(burn, len(norms) - w)])
        trend_ok &= bool(np.all(np.diff(windows) <= windows[:-1] * 1e-6 + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = feasible_seeds >= 8 and trend_ok and elapsed < 120.0
    _report(5, "batch residual convergence", ok, f"feasible {feasible_seeds}/10 >= 8, trend ok {trend_ok}, {elapsed:.0f}s")


def test_criterion_06_homotopy_diversity():
    t0 = time.perf_counter()
    wall_x = 6.0
    ys = [-3.5, -2.6, 0.0, 0.75, -0.75, 2.6, 3.5]
    scenario = bench.Scenario(
        kind="random-static",
        dim=2,
        horizon=bench.Horizon(t0=0.0, tf=10.0, n_p=100),
        robot=bench.RobotSpec(shape=[0.0, 0.0], v_max=3.0, a_max=3.0, footprint_offsets=[0.2, -0.2]),
        obstacles=[bench.ScenarioObstacle(a=0.45, b=0.45, center=[wall_x, y], velocity=[0.0, 0.0]) for y in ys],
        boundary=bench.Boundary(start=[0.0, 0.0], goal=[12.0, 0.0]),
        seed=0,
    )
    basis = build_basis(0.0, 10.0, 100, 10)
    problem = batch_problem_from_scenario(scenario, basis, n_batch=100)
    mean = straight_line_coeffs(basis, [0.0, 0.0], [12.0, 0.0]).ravel()
    ranked = solver_batch.solve_batch_opt(
        problem, solver_batch.BatchParams(max_iter=100), mean=mean, covariance=9.0 * np.eye(mean.size), seed=0
    )
    classes = set()
    for i in np.flatnonzero(ranked.feasible):
        pos = ranked.trajectories[i].pos
        k = np.argmin(np.abs(pos[:, 0] - wall_x))
        classes.add(1 if pos[k, 1] > 0.0 else -1)
    elapsed = time.perf_counter() - t0
    ok = len(classes) >= 2 and elapsed < 120.0
    _report(6, "homotopy diversity", ok, f"{int(ranked.feasible.sum())} feasible in {len(classes)} classes >= 2, {elapsed:.0f}s")


def test_criterion_07_priest_pathological_recovery():
    t0 = time.perf_counter()
    priest_wins = cem_wins = 0
    for seed in range(10):
        scenario = gen_scenario("all-infeasible-probe", seed=seed)
        h = scenario.horizon
        basis = build_basis(h.t0, h.tf, h.n_p, 10)
        setup = priest_setup_from_scenario(scenario, basis)
        dist = default_sampling_distribution(scenario, basis)
        c1 = _barn_c1(scenario)
        params = solver_priest.PriestParams(seed=seed)  # paper defaults N=13, N_b=110, N_proj=80, N_elite=20
        res = solver_priest.priest_optimize(setup, c1, dist, params)
        ok_p, _ = check_collision_free(res.best.trajectory, scenario)
        priest_wins += ok_p
        cem = solver_priest.cem_optimize(
            setup, c1, dist, solver_priest.CemParams(n_batch=params.n_batch, iterations=params.n_outer, seed=seed)
        )
        ok_c, _ = check_collision_free(cem.best_trajectory, scenario)
        cem_wins += ok_c
    elapsed = time.perf_counter() - t0
    ok = priest_wins >= 9 and cem_wins <= 3 and elapsed < 180.0
    _report(7, "pathological recovery", ok, f"PRIEST {priest_wins}/10 >= 9, CEM {cem_wins}/10 <= 3, {elapsed:.0f}s")


def test_criterion_08_projection_guarantees():
    t0 = time.perf_counter()
    scenario = gen_scenario("all-infeasible-probe", seed=0)
    h = scenario.horizon
    basis = build_basis(h.t0, h.tf, h.n_p, 10)
    before = qpcore.factorization_count()
    setup = priest_setup_from_scenario(scenario, basis)
    factorizations = qpcore.factorization_count() - before

    rng = np.random.default_rng(0)
    mean = straight_line_coeffs(basis, scenario.boundary.start, scenario.boundary.goal).ravel()
    samples = mean[None, :] + rng.normal(scale=0.6, size=(40, mean.size))
    projected, scores, _ = solver_priest.project(setup, samples, n_inner=30)
    B, b_eq = boundary_matrix(basis, (0, 1, 2), (0,)), setup.b_eq.reshape(setup.dim, -1).T
    boundary_ok = all(np.max(np.abs(B @ xi.reshape(setup.dim, setup.m).T - b_eq)) <= 1e-8 for xi in projected)

    # feasible inputs are fixed points: take a strictly feasible projected
    # trajectory and push it through again
    feas_idx = int(np.argmin(scores))
    fixed_in = projected[feas_idx]
    fixed_out, _, _ = solver_priest.project(setup, fixed_in[None, :], n_inner=10)
    fixed_ok = scores[feas_idx] < 1e-9 and np.max(np.abs(fixed_out[0] - fixed_in)) <= 1e-9

    no_refactor = qpcore.factorization_count() - before == factorizations == 1
    elapsed = time.perf_counter() - t0
    ok = boundary_ok and fixed_ok and no_refactor and elapsed < 10.0
    _report(
        8,
        "projection guarantees",
        ok,
        f"boundaries<=1e-8 {boundary_ok}, fixed point {fixed_ok}, single factorization {no_refactor}, {elapsed:.1f}s",
    )


def test_criterion_09_multiagent_square_benchmark():
    t0 = time.perf_counter()
    norm_wins = 0
    dist_ok = True
    factor_ok = True
    for seed in range(10):
        scenario = gen_scenario("square-antipodal", {"n_agents": 8, "agent_radius": 0.4}, seed=seed)
        basis = build_basis(0.0, 10.0, 100, 10)
        problem = multiagent_problem_from_scenario(scenario, basis)
        params = solver_multiagent.JointParams(max_iter=150)
        before = qpcore.factorization_count()
        sol = solver_multiagent.solve_joint(problem, params)
        factor_ok &= (qpcore.factorization_count() - before) == params.rho_levels == sol.n_factorizations
        norm_wins += sol.residual_norm <= 0.01
        dist_ok &= sol.min_pair_distance >= 0.8
    elapsed = time.perf_counter() - t0
    ok = norm_wins >= 8 and dist_ok and factor_ok and elapsed < 120.0
    _report(
        9,
        "multi-agent square benchmark",
        ok,
        f"norm<=0.01 in {norm_wins}/10 >= 8, clearance>=0.8 {dist_ok}, factors==levels {factor_ok}, {elapsed:.0f}s",
    )


def test_criterion_10_metric_sanity():
    t0 = time.perf_counter()
    scenario = bench.Scenario(
        kind="random-static",
        dim=2,
        horizon=bench.Horizon(t0=0.0, tf=5.0, n_p=50),
        robot=bench.RobotSpec(shape=[0.0, 0.0], v_max=3.0, a_max=3.0),
        obstacles=[],
        boundary=bench.Boundary(start=[0.0, 0.0], goal=[5.0, 0.0]),
        seed=0,
    )
    from trajopt.basis import Trajectory

    ts = np.linspace(0.0, 5.0, 50)
    straight = Trajectory(
        t=ts,
        pos=np.column_stack([ts, np.zeros(50)]),
        vel=np.tile([1.0, 0.0], (50, 1)),
        acc=np.zeros((50, 2)),
    )
    smooth_zero = bench.eval_metrics(straight, scenario).smoothness == 0.0

    theta = np.linspace(0.0, 2.0 * np.pi, 3000)
    circle = Trajectory(
        t=theta,
        pos=np.column_stack([np.cos(theta), np.sin(theta)]),
        vel=np.column_stack([-np.sin(theta), np.cos(theta)]),
        acc=np.column_stack([-np.cos(theta), -np.sin(theta)]),
    )
    arc = bench.eval_metrics(circle, scenario).arc_length
    arc_ok = abs(arc - 2.0 * np.pi) / (2.0 * np.pi) < 0.01

    R, omega = 2.5, 0.8
    tt = np.linspace(0.0, 4.0, 100)
    vel = np.column_stack([-R * omega * np.sin(omega * tt), R * omega * np.cos(omega * tt)])
    acc = np.column_stack([-R * omega**2 * np.cos(omega * tt), -R * omega**2 * np.sin(omega * tt)])
    _, kappa = solver_priest.flatness_car(vel, acc)
    curv_ok = np.max(np.abs(kappa - 1.0 / R)) < 1e-6
    elapsed = time.perf_counter() - t0
    ok = smooth_zero and arc_ok and curv_ok and elapsed < 1.0
    _report(10, "metric sanity", ok, f"smoothness==0 {smooth_zero}, arc err {abs(arc - 2*np.pi)/(2*np.pi):.4f} < 1%, curvature ok {curv_ok}")


def test_criterion_11_determinism_and_cli_round_trip(tmp_path):
    from trajopt.bench.cli import main

    t0 = time.perf_counter()
    scn_path = tmp_path / "scenario.json"
    assert main(["gen", "--kind", "corridor", "--seed", "3", "--out", str(scn_path)]) == 0
    loaded = bench.load_scenario(scn_path)
    json_ok = bench.to_json(loaded) == bench.to_json(bench.gen_scenario("corridor", seed=3))

    contents = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        assert main(["run", "--scenario", str(scn_path), "--solver", "single", "--seed", "5", "--iters", "200", "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        contents.append("\n".join(",".join(r.split(",")[:-1]) for r in rows).encode())
    identical = contents[0] == contents[1]
    elapsed = time.perf_counter() - t0
    ok = json_ok and identical and elapsed < 30.0
    _report(11, "determinism & CLI round-trip", ok, f"scenario JSON round-trips {json_ok}, CSV byte-identical {identical}, {elapsed:.0f}s")
