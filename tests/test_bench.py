import hashlib
import json
import re

import numpy as np
import pytest

from trajopt.basis import Trajectory
from trajopt.bench import (
    Boundary,
    Horizon,
    RobotSpec,
    RunMetrics,
    RunRecord,
    Scenario,
    ScenarioObstacle,
    agent_boundaries,
    check_collision_free,
    clearance_lower_bound,
    eval_metrics,
    from_json,
    gen_scenario,
    load_scenario,
    predict_obstacles,
    read_results_csv,
    receding_horizon_run,
    run_scenario,
    save_scenario,
    to_json,
    write_results_csv,
)
from trajopt.bench.runner import SOLVERS
from trajopt import solver_single
from trajopt.bench import runner
from trajopt.basis import build_basis
from trajopt.geometry import scaled_sq_norm
from trajopt.bench.runner import _collides
from trajopt.bench.scenarios import ObstacleMotion


def _trajectory_from_positions(t, pos):
    pos = np.asarray(pos, dtype=float)
    vel = np.gradient(pos, t, axis=0)
    acc = np.gradient(vel, t, axis=0)
    return Trajectory(t=np.asarray(t), pos=pos, vel=vel, acc=acc)


def empty_scenario(dim=2, n_p=50):
    return Scenario(
        kind="random-static",
        dim=dim,
        horizon=Horizon(t0=0.0, tf=5.0, n_p=n_p),
        robot=RobotSpec(shape=[0.0, 0.0], v_max=3.0, a_max=3.0),
        obstacles=[],
        boundary=Boundary(start=[0.0] * dim, goal=[5.0] + [0.0] * (dim - 1)),
        seed=0,
    )


# malformed scenario documents: the change to the corridor scenario's JSON,
# and what the error must name; from_json raised KeyError or TypeError for
# the first three, and a string n_p or an infinite tf reached build_basis
MALFORMED = {
    "no-seed": (lambda raw: {k: v for k, v in raw.items() if k != "seed"}, "'seed'"),
    "extra-horizon-key": (lambda raw: {**raw, "horizon": {**raw["horizon"], "dt": 0.1}}, "'dt'"),
    "obstacle-without-a": (lambda raw: {**raw, "obstacles": [{k: v for k, v in o.items() if k != "a"} for o in raw["obstacles"]]}, "'a'"),
    "not-an-object": (lambda raw: [raw], "JSON object"),
    "string-n_p": (lambda raw: {**raw, "horizon": {**raw["horizon"], "n_p": "100"}}, "n_p"),
    "infinite-tf": (lambda raw: {**raw, "horizon": {**raw["horizon"], "tf": float("inf")}}, "horizon tf must be a real number, finite"),
    # the robot block went unchecked: batch and priest runs ended in a TypeError
    # traceback, and a priest run with a null v_max planned with no velocity bound
    "string-v_max": (lambda raw: {**raw, "robot": {**raw["robot"], "v_max": "3"}}, "v_max must be a real number, positive and finite, got '3'"),
    "null-v_max": (lambda raw: {**raw, "robot": {**raw["robot"], "v_max": None}}, "v_max must be a real number, positive and finite, got None"),
    "string-start": (lambda raw: {**raw, "boundary": {**raw["boundary"], "start": ["0", 0]}}, "start must be a list of 2 finite numbers"),
    # these named no key
    "string-t0": (lambda raw: {**raw, "horizon": {**raw["horizon"], "t0": "0"}}, "horizon t0 must be a real number"),
    "scalar-center": (lambda raw: {**raw, "obstacles": [{**raw["obstacles"][0], "center": 5}]}, "center must be a list of 2 finite numbers, got 5"),
    "list-horizon": (lambda raw: {**raw, "horizon": list(raw["horizon"].values())}, "horizon must be a JSON object, got list"),
    # loaded, then ended in a TypeError traceback where the dimension sized a range
    "float-dim": (lambda raw: {**raw, "dim": 2.0}, "dim must be 2 or 3, got 2.0"),
    # loaded, and the scenario id was built from the string
    "string-seed": (lambda raw: {**raw, "seed": "0"}, "seed must be an integer, got '0'"),
    # read "malformed scenario: 'int' object is not iterable"
    "scalar-obstacles": (lambda raw: {**raw, "obstacles": 5}, "obstacles must be a JSON array, got int"),
    # json reads it as an int beyond the float range: an OverflowError traceback
    "huge-v_max": (lambda raw: {**raw, "robot": {**raw["robot"], "v_max": 10**400}}, "v_max must be a real number, positive and finite, got 1000"),
}


def _malformed(name):
    """The corridor scenario's JSON document with MALFORMED[name]'s change."""
    change, _ = MALFORMED[name]
    return json.dumps(change(json.loads(to_json(gen_scenario("corridor", seed=0)))))


class TestGenScenario:
    def test_square_antipodal_goals_are_rotations(self):
        scenario = gen_scenario("square-antipodal", {"n_agents": 4, "jitter": 0.0}, seed=1)
        roster = agent_boundaries(scenario)
        assert len(roster) == 4
        center = 0.5 * (np.asarray(scenario.boundary.start) + np.asarray(scenario.boundary.goal))
        for start, goal in roster:
            np.testing.assert_allclose(goal, 2.0 * center - start, atol=1e-12)

    @pytest.mark.parametrize(
        "n_agents,seed,digest",
        [
            (8, 0, "85bfd5dfc7e4cce0f5597c684698b10c07b73add55e183b95675e844bee3e6bb"),
            (8, 7, "4fee3744df5ec59c699f4b99a3ef18407899ebe38e6165b6017b4baa48c2e6ac"),
            (10, 0, "8e36cc38ea3ff73b61b4bfe11f5ff5b926050354dc9a83df65b73125d2f52201"),
            (10, 7, "2dfad8531069c70a2cbf5d2cb5c9bb8689d3aade4cdfc599b19ce3c4c24be548"),
        ],
    )
    def test_square_antipodal_layout_pinned(self, n_agents, seed, digest):
        # recorded before the start-gap check; the benchmark's swarm strata
        scenario = gen_scenario("square-antipodal", {"n_agents": n_agents}, seed=seed)
        assert hashlib.sha256(to_json(scenario).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_agents,side", [(32, 6.0), (2, 0.5)])
    def test_square_antipodal_overlapping_starts_rejected(self, n_agents, side):
        # 32 agents on the 6 m square start about 0.75 m apart, inside two
        # 0.4 m radii; the message names a side that fits, and that side does
        with pytest.raises(ValueError, match="smallest side that fits") as info:
            gen_scenario("square-antipodal", {"n_agents": n_agents, "side": side}, seed=0)
        fits = float(re.search(r"is ([0-9.]+) m$", str(info.value)).group(1))
        for seed in range(5):
            gen_scenario("square-antipodal", {"n_agents": n_agents, "side": fits}, seed=seed)

    def test_seed_repetition_identical(self):
        a = gen_scenario("corridor", seed=5)
        b = gen_scenario("corridor", seed=5)
        assert to_json(a) == to_json(b)

    def test_random_static_respects_clearance(self):
        scenario = gen_scenario("random-static", {"n_o": 10, "clearance": 1.5}, seed=2)
        assert len(scenario.obstacles) == 10
        start = np.asarray(scenario.boundary.start)
        goal = np.asarray(scenario.boundary.goal)
        for obs in scenario.obstacles:
            c = np.asarray(obs.center)
            assert np.linalg.norm(c - start) >= 1.5
            assert np.linalg.norm(c - goal) >= 1.5

    def test_probe_puts_sampling_mean_inside_obstacle(self):
        scenario = gen_scenario("all-infeasible-probe", seed=3)
        start = np.asarray(scenario.boundary.start)
        goal = np.asarray(scenario.boundary.goal)
        blocker = scenario.obstacles[0]
        # the straight line passes through the blocker
        line = start + np.linspace(0, 1, 200)[:, None] * (goal - start)
        d = np.hypot(line[:, 0] - blocker.center[0], line[:, 1] - blocker.center[1])
        assert d.min() < blocker.a

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_scenario("no-such-kind", seed=0)


class TestScenarioJson:
    def test_round_trip(self):
        scenario = gen_scenario("dynamic-flow", seed=7)
        assert to_json(from_json(to_json(scenario))) == to_json(scenario)

    def test_file_round_trip(self, tmp_path):
        scenario = gen_scenario("barn-like", seed=9)
        path = tmp_path / "scn.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert to_json(loaded) == to_json(scenario)

    def test_schema_keys_exact(self):
        import json

        raw = json.loads(to_json(gen_scenario("corridor", seed=0)))
        assert set(raw) == {"kind", "dim", "horizon", "robot", "obstacles", "boundary", "seed"}
        assert set(raw["horizon"]) == {"t0", "tf", "n_p"}
        assert set(raw["robot"]) == {"shape", "v_max", "a_max", "footprint_offsets"}
        assert set(raw["boundary"]) == {"start", "goal"}
        for obs in raw["obstacles"]:
            assert set(obs) == {"a", "b", "center", "velocity"}

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_document_rejected_by_key(self, name):
        with pytest.raises(ValueError, match=re.escape(MALFORMED[name][1])):
            from_json(_malformed(name))


class TestEvalMetrics:
    def test_stationary_trajectory(self):
        scenario = empty_scenario()
        t = np.linspace(0.0, 5.0, 50)
        traj = Trajectory(t=t, pos=np.ones((50, 2)), vel=np.zeros((50, 2)), acc=np.zeros((50, 2)))
        m = eval_metrics(traj, scenario)
        assert m.smoothness == 0.0
        assert m.arc_length == 0.0

    def test_straight_constant_velocity(self):
        scenario = empty_scenario()
        t = np.linspace(0.0, 5.0, 50)
        pos = np.column_stack([t, np.zeros(50)])
        traj = Trajectory(t=t, pos=pos, vel=np.tile([1.0, 0.0], (50, 1)), acc=np.zeros((50, 2)))
        m = eval_metrics(traj, scenario)
        assert m.smoothness == 0.0
        assert m.arc_length == pytest.approx(5.0)

    def test_unit_circle_arc_length(self):
        scenario = empty_scenario()
        theta = np.linspace(0.0, 2.0 * np.pi, 2000)
        pos = np.column_stack([np.cos(theta), np.sin(theta)])
        traj = _trajectory_from_positions(theta, pos)
        m = eval_metrics(traj, scenario)
        assert abs(m.arc_length - 2.0 * np.pi) / (2.0 * np.pi) < 0.01


class TestCheckCollisionFree:
    def test_through_center_fails_with_positive_violation(self):
        scenario = empty_scenario()
        scenario.obstacles = [ScenarioObstacle(a=0.5, b=0.5, center=[2.5, 0.0], velocity=[0.0, 0.0])]
        t = np.linspace(0.0, 5.0, 50)
        pos = np.column_stack([t, np.zeros(50)])
        traj = _trajectory_from_positions(t, pos)
        ok, worst = check_collision_free(traj, scenario)
        assert not ok
        assert worst > 0.0

    def test_empty_obstacles_pass(self):
        scenario = empty_scenario()
        t = np.linspace(0.0, 5.0, 10)
        traj = _trajectory_from_positions(t, np.column_stack([t, np.zeros(10)]))
        ok, _ = check_collision_free(traj, scenario)
        assert ok

    def test_boundary_tangency_at_zero_margin(self):
        scenario = empty_scenario()
        scenario.obstacles = [ScenarioObstacle(a=0.5, b=0.5, center=[2.5, -0.5], velocity=[0.0, 0.0])]
        t = np.linspace(0.0, 5.0, 51)
        pos = np.column_stack([np.linspace(0, 5, 51), np.zeros(51)])  # grazes the top at (2.5, 0)
        traj = _trajectory_from_positions(t, pos)
        ok, worst = check_collision_free(traj, scenario, margin=0.0)
        assert ok
        assert abs(worst) <= 1e-9


    # obstacle (a, b) = (2, 0.5) at the origin: in 2-D b is the y semi-axis,
    # in 3-D x and y take a and z takes b
    @pytest.mark.parametrize(
        "dim,points,scaled",
        [
            (2, [[3.0, 0.0], [0.0, 1.0], [-1.2, -0.8]], [1.5, 2.0, (0.36 + 2.56) ** 0.5]),
            (2, [[3.0, 0.0], [0.0, 0.4]], [1.5, 0.8]),
            (3, [[0.0, 3.0, 0.0], [0.0, 0.0, -1.0], [1.2, 0.0, 0.8]], [1.5, 2.0, (0.36 + 2.56) ** 0.5]),
            (3, [[3.0, 0.0, 0.0], [0.0, 0.0, 0.4]], [1.5, 0.8]),
        ],
    )
    def test_elliptical_obstacle_hand_values(self, dim, points, scaled):
        scenario = empty_scenario(dim=dim)
        scenario.obstacles = [ScenarioObstacle(a=2.0, b=0.5, center=[0.0] * dim, velocity=[0.0] * dim)]
        t = np.linspace(0.0, 1.0, len(points))
        traj = _trajectory_from_positions(t, points)
        ok, worst = check_collision_free(traj, scenario, margin=0.1)
        assert worst == pytest.approx(1.1 - min(scaled), abs=1e-12)
        assert ok == (min(scaled) >= 1.1)
        assert clearance_lower_bound(traj, scenario) == pytest.approx((min(scaled) - 1.0) * 0.5, abs=1e-12)


def _track_distances(traj, scenario, t_now):
    """Scaled distances with each obstacle's track extrapolated on its own."""
    offsets = t_now + traj.t - traj.t[0]
    tracks = [np.asarray(o.center, dtype=float) + np.asarray(o.velocity, dtype=float) * offsets[:, None]
              for o in scenario.obstacles]
    deltas = traj.pos[None, :, :] - np.stack(tracks)
    a = np.array([[o.a] for o in scenario.obstacles])
    b = np.array([[o.b] for o in scenario.obstacles])
    return np.sqrt(scaled_sq_norm(np.moveaxis(deltas, -1, 0), a, b))


class TestMovingObstacleDistances:
    """The distance pass reads the centres and semi-axes of predict_obstacles,
    formed in one broadcast; its values are those of the obstacles' tracks
    taken one at a time, bit for bit, at any t_now."""

    @pytest.mark.parametrize("kind,params,seed", [("dynamic-flow", None, 0), ("dynamic-flow", None, 3),
                                                  ("random-static", {"dim": 3}, 1)])
    @pytest.mark.parametrize("t_now", [0.0, 0.7, 2.35])
    def test_equal_to_the_predicted_tracks(self, kind, params, seed, t_now):
        scenario = gen_scenario(kind, params, seed=seed)
        if kind == "random-static":  # give the 3-D obstacles some motion
            for k, obs in enumerate(scenario.obstacles):
                obs.velocity = [0.3 * (-1) ** k, -0.2, 0.1 * k]
        assert any(np.any(obs.velocity) for obs in scenario.obstacles)
        h = scenario.horizon
        t = np.linspace(h.t0, h.tf, h.n_p) + 1.25  # a grid that starts after t = 0
        start, goal = (np.asarray(p, dtype=float) for p in (scenario.boundary.start, scenario.boundary.goal))
        pos = start + np.linspace(0.0, 1.0, h.n_p)[:, None] * (goal - start) + 0.4 * np.sin(t)[:, None]
        traj = Trajectory(t=t, pos=pos, vel=np.zeros_like(pos), acc=np.zeros_like(pos))
        dists = _track_distances(traj, scenario, t_now)
        semi = np.array([[min(o.a, o.b)] for o in scenario.obstacles])
        assert clearance_lower_bound(traj, scenario, t_now) == float(np.min((dists - 1.0) * semi))
        assert eval_metrics(traj, scenario, t_now=t_now).min_clearance == float(np.min((dists - 1.0) * semi))
        # the same, bit for bit, from the obstacles already predicted for the trajectory's samples
        predicted = predict_obstacles(scenario, traj.t, t_now)
        assert clearance_lower_bound(traj, predicted) == float(np.min((dists - 1.0) * semi))
        assert eval_metrics(traj, predicted).min_clearance == float(np.min((dists - 1.0) * semi))
        at_zero = _track_distances(traj, scenario, 0.0)
        for margin in (0.0, 0.1):
            worst = float(np.max(1.0 + margin - at_zero))
            assert check_collision_free(traj, scenario, margin=margin) == (worst <= 0.0, worst)

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, -1.0), (np.nan, 0.5), (0.5, np.inf)])
    def test_scenario_rejects_bad_semi_axes(self, a, b):
        with pytest.raises(ValueError, match="semi-axes"):
            Scenario(kind="random-static", dim=2, horizon=Horizon(t0=0.0, tf=5.0, n_p=50),
                     robot=RobotSpec(shape=[0.0, 0.0], v_max=3.0, a_max=3.0),
                     obstacles=[ScenarioObstacle(a=a, b=b, center=[1.0, 0.0], velocity=[0.0, 0.0])],
                     boundary=Boundary(start=[0.0, 0.0], goal=[5.0, 0.0]), seed=0)

    @pytest.mark.parametrize(
        "change,match",
        [
            (dict(kind="maze"), "unknown scenario kind"),
            (dict(dim=4), "dim must be 2 or 3"),
            (dict(obstacles=[ScenarioObstacle(a=0.5, b=0.5, center=[1.0, 0.0, 0.0], velocity=[0.0, 0.0])]), "center must be a list of 2 finite numbers"),
            (dict(obstacles=[ScenarioObstacle(a=0.5, b=0.5, center=[1.0, 0.0], velocity=[0.0])]), "velocity must be a list of 2 finite numbers"),
            (dict(boundary=Boundary(start=[0.0, 0.0], goal=[5.0])), "goal must be a list of 2 finite numbers"),
            (dict(horizon=Horizon(t0=0.0, tf=float("nan"), n_p=50)), "horizon tf must be a real number, finite"),
            (dict(horizon=Horizon(t0=0.0, tf=5.0, n_p=1)), "n_p must be at least 2"),
        ],
        ids=["kind", "dim", "centre-length", "velocity-length", "goal-length", "nan-tf", "one-sample"],
    )
    def test_scenario_rejects_malformed_fields(self, change, match):
        with pytest.raises(ValueError, match=match):
            Scenario(**{**vars(empty_scenario()), **change})


class TestClearanceSign:
    """run_scenario takes success from the sign of clearance_lower_bound;
    for positive semi-axes (d - 1) * min(a, b) >= 0 exactly when 1 - d <= 0,
    so that sign is check_collision_free's verdict at zero margin."""

    # (obstacles as (a, b, center), positions, verdict)
    @pytest.mark.parametrize(
        "obstacles,points,clear",
        [
            ([(0.5, 0.5, [2.5, 0.0])], [[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]], False),  # through the centre
            ([(0.5, 0.5, [2.5, -0.5])], [[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]], True),  # scaled distance exactly 1
            ([(0.5, 0.5, [2.5, -2.0])], [[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]], True),
            ([(0.5, 0.5, [2.5, -2.0])], [[0.0, 0.0], [np.nan, 0.0], [5.0, 0.0]], False),
            ([(2.0, 0.5, [0.0, 0.0])], [[3.0, 0.0], [0.0, 0.6]], True),
            ([(2.0, 0.5, [0.0, 0.0])], [[3.0, 0.0], [1.9, 0.0]], False),
            ([(2.0, 0.5, [0.0, 0.0])], [[0.0, 0.5], [2.0, 0.0]], True),  # tangent on both axes
            ([], [[0.0, 0.0], [np.nan, 0.0]], True),
        ],
    )
    def test_sign_is_the_collision_verdict(self, obstacles, points, clear):
        scenario = empty_scenario()
        scenario.obstacles = [
            ScenarioObstacle(a=a, b=b, center=center, velocity=[0.0, 0.0]) for a, b, center in obstacles
        ]
        pos = np.asarray(points, dtype=float)
        zeros = np.zeros_like(pos)
        traj = Trajectory(t=np.linspace(0.0, 1.0, len(pos)), pos=pos, vel=zeros, acc=zeros)
        ok, _ = check_collision_free(traj, scenario, margin=0.0)
        assert ok == clear
        assert (clearance_lower_bound(traj, scenario) >= 0.0) == ok

    @pytest.mark.parametrize(
        "solver,kind,seed,iters",
        [
            ("single", "corridor", 0, 300),
            ("single", "dynamic-flow", 0, 5),
            ("batch", "barn-like", 0, 2),
            ("priest", "barn-like", 0, 1),
            ("priest", "barn-like", 2, 1),
            ("cem", "barn-like", 0, 1),
        ],
    )
    def test_run_success_is_the_collision_verdict(self, tmp_path, solver, kind, seed, iters):
        scenario = gen_scenario(kind, seed=seed)
        rec = run_scenario(scenario, solver=solver, seed=seed, iters=iters, out_dir=tmp_path)
        # the dump writes floats with repr, so it reads back the exact plan
        rows = np.genfromtxt(rec.trajectory_path, delimiter=",", skip_header=1)
        t, pos = rows[:, 0], rows[:, 1 : 1 + scenario.dim]
        traj = Trajectory(t=t, pos=pos, vel=np.zeros_like(pos), acc=np.zeros_like(pos))
        assert rec.metrics.success == check_collision_free(traj, scenario, margin=0.0)[0]


class TestInCollisionNow:
    # obstacle (a, b) = (2, 0.5) starting at (1, 0[, 0]) and moving +1 m/s
    # in x, so it is centred at x = 3 when t_abs = 2
    @pytest.mark.parametrize(
        "dim,pos,inside",
        [
            (2, [3.0, 0.4], True),
            (2, [3.0, 0.6], False),
            (2, [4.9, 0.0], True),
            (2, [5.1, 0.0], False),
            (3, [3.0, 1.9, 0.0], True),
            (3, [3.0, 0.0, 0.6], False),
            (3, [3.0, 0.0, 0.4], True),
            (3, [4.5, 1.5, 0.0], False),
        ],
    )
    def test_elliptical_obstacle_hand_values(self, dim, pos, inside):
        scenario = empty_scenario(dim=dim)
        far = [50.0] + [0.0] * (dim - 1)
        scenario.obstacles = [
            ScenarioObstacle(a=0.5, b=0.5, center=far, velocity=[0.0] * dim),
            ScenarioObstacle(a=2.0, b=0.5, center=[1.0] + [0.0] * (dim - 1), velocity=[1.0] + [0.0] * (dim - 1)),
        ]
        assert _collides(scenario, np.array([pos]), np.array([2.0])).tolist() == [inside]

    def test_each_sample_at_its_own_time(self):
        # x = 3 is the obstacle's centre at t = 2 only; 2 m off it at t = 0 and t = 4
        scenario = empty_scenario()
        scenario.obstacles = [ScenarioObstacle(a=2.0, b=0.5, center=[1.0, 0.0], velocity=[1.0, 0.0])]
        pos = np.array([[3.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        assert _collides(scenario, pos, np.array([0.0, 2.0, 4.0])).tolist() == [False, True, False]

    def test_no_obstacles(self):
        assert _collides(empty_scenario(), np.zeros((1, 2)), np.zeros(1)).tolist() == [False]


class TestPredictObstacles:
    def test_zero_velocity_constant(self):
        scenario = empty_scenario()
        scenario.obstacles = [ScenarioObstacle(a=0.5, b=0.5, center=[1.0, 2.0], velocity=[0.0, 0.0])]
        obstacles = predict_obstacles(scenario, np.linspace(0, 5, 11))
        np.testing.assert_array_equal(obstacles.centres, np.tile([[[1.0]], [[2.0]]], (1, 1, 11)))
        np.testing.assert_array_equal(obstacles.a, [0.5])
        np.testing.assert_array_equal(obstacles.b, [0.5])

    def test_unit_velocity_advances(self):
        scenario = empty_scenario(dim=3)
        scenario.obstacles = [ScenarioObstacle(a=0.5, b=0.5, center=[0.0, 0.0, 0.0], velocity=[1.0, 0.0, 0.0])]
        obstacles = predict_obstacles(scenario, np.linspace(0, 4, 5))
        np.testing.assert_allclose(obstacles.centres[:, 0, 2], [2.0, 0.0, 0.0])

    def test_matches_hand_kinematics(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=2)
        c = rng.normal(size=2)
        scenario = empty_scenario()
        scenario.obstacles = [ScenarioObstacle(a=0.5, b=0.5, center=list(c), velocity=list(v))]
        ts = np.linspace(0.0, 5.0, 13)
        obstacles = predict_obstacles(scenario, ts, t_now=1.5)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(obstacles.centres[:, 0, i], c + v * (1.5 + t), atol=1e-12)

    def test_semi_axes_per_obstacle(self):
        scenario = empty_scenario(dim=3)
        scenario.obstacles = [ScenarioObstacle(a=0.5 + k, b=0.25 * k + 0.1, center=[k, 0.0, 0.0], velocity=[0.0] * 3)
                              for k in range(3)]
        obstacles = predict_obstacles(scenario, np.linspace(0, 4, 5))
        assert (obstacles.dim, obstacles.n_o, obstacles.n_p) == (3, 3, 5)
        np.testing.assert_array_equal(obstacles.a, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(obstacles.b, [0.1, 0.35, 0.6])

    def test_no_obstacles(self):
        obstacles = predict_obstacles(empty_scenario(dim=3), np.linspace(0, 4, 5))
        assert obstacles.centres.shape == (3, 0, 5) and obstacles.a.shape == obstacles.b.shape == (0,)

    @pytest.mark.parametrize("kind,params", [("dynamic-flow", None), ("random-static", {"dim": 3}), ("corridor", {"n_o": 0})])
    def test_motion_read_once_predicts_as_the_scenario(self, kind, params):
        scenario = gen_scenario(kind, params, seed=2)
        motion = ObstacleMotion.of(scenario)
        assert motion.centres.shape == motion.velocities.shape == (scenario.dim, len(scenario.obstacles))
        for value in vars(motion).values():
            assert not value.flags["WRITEABLE"]
        ts = np.linspace(0.0, 10.0, 100)
        for t_now in (0.0, 1.7):
            expected, got = predict_obstacles(scenario, ts, t_now), predict_obstacles(motion, ts, t_now)
            for name in ("centres", "a", "b"):
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
        if scenario.obstacles:  # a snapshot: a later change to the scenario does not reach it
            scenario.obstacles[0].velocity = [9.0] * scenario.dim
            assert not np.array_equal(predict_obstacles(scenario, ts).centres, predict_obstacles(motion, ts).centres)


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        metrics = RunMetrics(
            smoothness=1.2345678901234567,
            tracking=0.1,
            arc_length=12.0,
            success=True,
            iters=42,
            residual_final=1e-9,
            min_clearance=0.25,
            wall_time_ms=17.5,
        )
        rec = RunRecord(scenario_id="corridor-0", solver="single", seed=3, metrics=metrics)
        path = tmp_path / "results.csv"
        write_results_csv(path, [rec])
        out = read_results_csv(path)
        assert len(out) == 1
        assert out[0].scenario_id == rec.scenario_id
        assert out[0].solver == rec.solver
        assert out[0].seed == rec.seed
        assert out[0].metrics == metrics


class TestRunScenario:
    def test_single_solver_end_to_end(self, tmp_path):
        scenario = gen_scenario("corridor", {"n_o": 4, "n_p": 60}, seed=0)
        rec = run_scenario(scenario, solver="single", seed=0, iters=300, out_dir=tmp_path)
        assert rec.metrics.success
        assert (tmp_path / "results.csv").exists()
        assert rec.trajectory_path is not None
        header = open(rec.trajectory_path).readline().strip()
        assert header == "t,x,y,z,psi"

    def test_unknown_solver_rejected(self):
        scenario = gen_scenario("corridor", seed=0)
        with pytest.raises(ValueError):
            run_scenario(scenario, solver="nope", seed=0, iters=5)

    def test_determinism_modulo_wall_time(self):
        # every solver, run twice on one (scenario, seed), differs in wall time only
        planar = gen_scenario("random-static", {"n_o": 5, "n_p": 60}, seed=1)
        swarm = gen_scenario("square-antipodal", seed=1)
        runs = [("single", planar, 30), ("batch", planar, 5), ("priest", planar, 3), ("cem", planar, 3), ("multiagent", swarm, 60)]
        assert sorted(solver for solver, _, _ in runs) == sorted(SOLVERS)
        for solver, scenario, iters in runs:
            m1, m2 = (run_scenario(scenario, solver=solver, seed=4, iters=iters).metrics for _ in range(2))
            m1.wall_time_ms = m2.wall_time_ms = 0.0
            assert m1 == m2, solver


def _straight_plans(monkeypatch, step):
    """Make every single plan the +x line from the origin in steps of `step`,
    stopped at empty_scenario's goal x = 5, so a test fixes which samples
    execute; returns the list the plans are appended to."""
    solve = solver_single.solve_single
    plans = []

    def straight(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.trajectory.pos[:] = 0.0
        sol.trajectory.pos[:, 0] = np.minimum(step * np.arange(len(sol.trajectory.t)), 5.0)
        plans.append(sol.trajectory)
        return sol

    monkeypatch.setattr(solver_single, "solve_single", straight)
    return plans


class TestRecedingHorizon:
    def test_other_solvers_rejected(self):
        with pytest.raises(ValueError, match="single and batch solvers"):
            receding_horizon_run(empty_scenario(), solver="priest")

    def test_empty_world_reaches_goal(self):
        scenario = empty_scenario(n_p=40)
        result = receding_horizon_run(scenario, solver="single", step_budget=20, n_steps=25)
        assert result.success
        assert result.reached_goal and not result.collided
        assert len(result.records) >= 1
        assert result.records[-1].metrics.success

    def test_step_records_report_the_sweeps_run(self):
        # with no obstacle every step's solve converges in its first sweep,
        # well inside the step budget of 40
        result = receding_horizon_run(empty_scenario(n_p=40), solver="single", step_budget=40, n_steps=3)
        assert len(result.records) == 3
        assert [r.metrics.iters for r in result.records] == [1, 1, 1]

    def test_start_in_collision_fails_immediately(self):
        scenario = empty_scenario(n_p=40)
        scenario.obstacles = [ScenarioObstacle(a=1.0, b=1.0, center=[0.0, 0.0], velocity=[0.0, 0.0])]
        result = receding_horizon_run(scenario, solver="single", step_budget=10, n_steps=5)
        assert not result.success
        assert result.collided
        assert result.records == []

    def test_step_ends_at_its_first_colliding_sample(self, monkeypatch):
        # n_p = 40 executes 4 samples a step; samples 2 and 3 (x = 1, 1.5) collide
        plans = _straight_plans(monkeypatch, 0.5)
        scenario = empty_scenario(n_p=40)
        scenario.obstacles = [
            ScenarioObstacle(a=0.1, b=0.1, center=[x, 0.0], velocity=[0.0, 0.0]) for x in (1.0, 1.5)
        ]
        result = receding_horizon_run(scenario, solver="single", step_budget=5, n_steps=5)
        assert result.collided and not result.reached_goal and not result.success
        assert len(result.records) == len(plans) == 1
        np.testing.assert_array_equal(result.executed.pos, plans[0].pos[:3])
        np.testing.assert_array_equal(result.executed.t, plans[0].t[:3])

    def test_collision_wins_over_the_goal_on_the_same_sample(self, monkeypatch):
        # sample 4 is the goal itself, the first sample within the goal
        # radius, and lies inside an obstacle
        plans = _straight_plans(monkeypatch, 1.25)
        scenario = empty_scenario(n_p=40)
        scenario.obstacles = [ScenarioObstacle(a=0.1, b=0.1, center=[5.0, 0.0], velocity=[0.0, 0.0])]
        result = receding_horizon_run(scenario, solver="single", step_budget=5, n_steps=5)
        assert result.collided and not result.reached_goal and not result.success
        assert not result.records[-1].metrics.success
        np.testing.assert_array_equal(result.executed.pos, plans[0].pos[:5])

    def test_step_clearance_is_taken_at_the_step_times(self, monkeypatch):
        # each step's plan starts where the last one's execution ended, so
        # its min_clearance is scored against the moving obstacles from the
        # step's own start time on, not from the episode start
        plans = []
        solve = solver_single.solve_single

        def recording(*args, **kwargs):
            sol = solve(*args, **kwargs)
            plans.append(sol.trajectory)
            return sol

        monkeypatch.setattr(solver_single, "solve_single", recording)
        scenario = gen_scenario("dynamic-flow", seed=1)
        result = receding_horizon_run(scenario, solver="single", n_steps=3)
        assert len(result.records) == len(plans) == 3
        n_exec = (len(result.executed.t) - 1) // 3  # no step stopped early
        for step, (record, plan) in enumerate(zip(result.records, plans)):
            t = result.executed.t[step * n_exec] + plan.t - plan.t[0]
            clearances = []
            for obs in scenario.obstacles:
                centers = np.asarray(obs.center) + t[:, None] * np.asarray(obs.velocity)
                scaled = np.hypot(*((plan.pos - centers) / [obs.a, obs.b]).T)
                clearances.append((scaled - 1.0) * min(obs.a, obs.b))
            assert record.metrics.min_clearance == pytest.approx(np.min(clearances), abs=1e-9)

    def test_single_closed_loop_outcomes(self):
        # five scene kinds x six seeds with the default step budget: with the
        # radial sweep, the shifted warm state and the extra sweeps of an
        # uncertified plan, 2 of the 30 episodes collide and 28 reach the
        # goal (6 and 19 with the angle sweep and no extra sweeps, 18 and 1
        # when the warm state was also handed on unshifted); the gate allows
        # one episode of slack each way
        kinds = [("corridor", None), ("random-static", None), ("random-static", {"dim": 3}), ("barn-like", None),
                 ("dynamic-flow", None)]
        collided = reached = 0
        for kind, params in kinds:
            for seed in range(6):
                result = receding_horizon_run(gen_scenario(kind, params, seed=seed), solver="single", step_budget=40, n_steps=30)
                collided += result.collided
                reached += result.reached_goal
        assert collided <= 3 and reached >= 27, (collided, reached)

    def test_uncertified_steps_are_counted(self):
        # corridor seed 5 executes an uncertified plan at its third step,
        # whose segment then collides
        result = receding_horizon_run(gen_scenario("corridor", seed=5), solver="single", n_steps=30)
        clearances = [r.metrics.min_clearance for r in result.records]
        assert result.collided and len(clearances) == 3
        assert result.uncertified_steps == sum(not c >= 0.0 for c in clearances) == 1

    def test_step_sweeps_on_until_its_plan_clears(self, monkeypatch):
        # dynamic-flow seed 0: the first step's plan is not clear at the
        # budget of 40 sweeps, and the same solve sweeps on until it is
        solves = []
        original = solver_single.solve_single

        def recording(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(solver_single, "solve_single", recording)
        result = receding_horizon_run(gen_scenario("dynamic-flow", seed=0), solver="single", step_budget=40, n_steps=3)
        assert len(solves) == len(result.records) == 3
        first = solves[0]
        assert first.certified and first.extra_sweeps > 0
        assert result.records[0].metrics.iters == first.iterations == 40 + first.extra_sweeps
        assert result.records[0].metrics.min_clearance >= 0.0
        assert result.uncertified_steps == 0 and all(sol.certified for sol in solves)

    # (kind, params, seed, factorizations of the episode): one episode per
    # scene kind, with the counts of the episode built anew at every step
    EPISODES = [
        ("corridor", None, 5, 22),
        ("random-static", None, 4, 22),
        ("random-static", {"dim": 3}, 3, 16),
        ("barn-like", None, 0, 16),
        ("dynamic-flow", None, 4, 22),
    ]

    @pytest.mark.parametrize("kind,params,seed,factorizations", EPISODES)
    def test_episode_set_up_once_reuses_exactly(self, monkeypatch, kind, params, seed, factorizations):
        # a step's record scores its plan against the tracks its problem
        # holds, so its min_clearance >= 0 is the solve's certified flag,
        # and the basis's own Gram blocks and boundary rows keep every
        # factor the step-by-step construction made
        from trajopt import qpcore

        solves = []
        original = solver_single.solve_single

        def recording(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(solver_single, "solve_single", recording)
        before = qpcore.factorization_count()
        result = receding_horizon_run(gen_scenario(kind, params, seed=seed), solver="single", n_steps=30)
        assert qpcore.factorization_count() - before == factorizations
        assert len(solves) == len(result.records) > 1
        verdicts = [r.metrics.min_clearance >= 0.0 for r in result.records]
        assert verdicts == [sol.certified for sol in solves]
        assert result.uncertified_steps == verdicts.count(False)

    def test_episode_reads_the_obstacles_once(self, monkeypatch):
        # an obstacle's velocity changed while the episode runs (inside its
        # first solve) does not reach the episode's steps
        def outcome(scenario):
            result = receding_horizon_run(scenario, solver="single", n_steps=6)
            return [r.metrics.__dict__ | {"wall_time_ms": 0.0} for r in result.records], result.executed.pos

        records, executed = outcome(gen_scenario("dynamic-flow", seed=1))
        scenario = gen_scenario("dynamic-flow", seed=1)
        original = solver_single.solve_single

        def mutating(*args, **kwargs):
            scenario.obstacles[0].velocity = [5.0, 5.0]
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_single, "solve_single", mutating)
        mutated_records, mutated_executed = outcome(scenario)
        assert scenario.obstacles[0].velocity == [5.0, 5.0]
        assert len(records) == 6 and mutated_records == records
        np.testing.assert_array_equal(mutated_executed, executed)
        # a new episode reads the changed velocity
        assert outcome(scenario)[0] != records


    def test_dynamic_flow_success_rate_definition(self):
        seeds = range(3)
        outcomes = []
        for seed in seeds:
            scenario = gen_scenario("dynamic-flow", {"n_o": 3, "n_p": 40, "tf": 8.0}, seed=seed)
            result = receding_horizon_run(scenario, solver="single", step_budget=25, n_steps=25)
            outcomes.append(result.success)
        rate = sum(outcomes) / len(outcomes)
        assert 0.0 <= rate <= 1.0
        assert rate == pytest.approx(np.mean(outcomes))


class TestCertificate:
    """The single solver's certified flag is eval_metrics' min_clearance >= 0 against the raw semi-axes."""

    @staticmethod
    def _problem(kind, params, seed, t_now=0.0):
        scenario = gen_scenario(kind, params, seed=seed)
        h = scenario.horizon
        return scenario, runner.single_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10), t_now=t_now)

    def test_problem_carries_the_raw_semi_axes(self):
        scenario, problem = self._problem("barn-like", None, 0, t_now=0.7)
        raw = predict_obstacles(scenario, problem.basis.grid.timestamps, t_now=0.7)
        for got, expected in zip(problem.raw_axes, (raw.a, raw.b)):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(problem.obstacles.a, raw.a + runner.PLAN_MARGIN)
        np.testing.assert_array_equal(problem.obstacles.centres, raw.centres)

    def test_certified_is_the_metrics_clearance_verdict(self):
        verdicts = []
        for kind, params in [("corridor", None), ("random-static", {"dim": 3}), ("barn-like", None), ("dynamic-flow", None)]:
            for seed in range(2):
                for t_now in (0.0, 1.3):
                    scenario, problem = self._problem(kind, params, seed, t_now)
                    for max_iter in (1, 5, 300):
                        sol = solver_single.solve_single(problem, solver_single.SingleParams(max_iter=max_iter))
                        clear = eval_metrics(sol.trajectory, scenario, problem.desired, t_now=t_now).min_clearance >= 0.0
                        assert sol.certified == clear, (kind, seed, t_now, max_iter)
                        verdicts.append(clear)
        assert any(verdicts) and not all(verdicts)

    def test_uncertified_plan_is_swept_on_in_the_same_solve(self):
        scenario, problem = self._problem("dynamic-flow", None, 0)
        budget = solver_single.solve_single(problem, solver_single.SingleParams(max_iter=40))
        assert not budget.certified and budget.extra_sweeps == 0 and budget.iterations == 40
        params = solver_single.SingleParams(max_iter=40, extra_sweeps=runner.MPC_EXTRA_SWEEPS)
        swept = solver_single.solve_single(problem, params)
        assert swept.certified and 0 < swept.extra_sweeps < runner.MPC_EXTRA_SWEEPS
        assert swept.iterations == 40 + swept.extra_sweeps
        # the first 40 sweeps are the budget solve's; the sweeps after them stop at the first clear plan
        assert swept.residual_history[:40] == budget.residual_history
        assert eval_metrics(swept.trajectory, scenario, problem.desired).min_clearance >= 0.0
        shorter = solver_single.solve_single(problem, solver_single.SingleParams(max_iter=40, extra_sweeps=swept.extra_sweeps - 1))
        assert not shorter.certified and shorter.extra_sweeps == swept.extra_sweeps - 1

    def test_no_obstacle_plan_is_certified(self):
        scenario = empty_scenario()
        h = scenario.horizon
        problem = runner.single_problem_from_scenario(scenario, build_basis(h.t0, h.tf, h.n_p, 10))
        sol = solver_single.solve_single(problem, solver_single.SingleParams(max_iter=0))
        assert sol.certified and sol.extra_sweeps == 0 and sol.iterations == 0


class TestCli:
    def test_gen_run_report_flow(self, tmp_path):
        from trajopt.bench.cli import main

        scn = tmp_path / "scenario.json"
        assert main(["gen", "--kind", "corridor", "--seed", "0", "--out", str(scn)]) == 0
        out1 = tmp_path / "run1"
        assert main(["run", "--scenario", str(scn), "--solver", "single", "--seed", "0", "--iters", "200", "--out", str(out1)]) == 0
        summary = tmp_path / "summary.csv"
        assert main(["report", "--in", str(tmp_path), "--out", str(summary)]) == 0
        text = summary.read_text().splitlines()
        assert text[0].startswith("scenario_id,solver,runs")
        assert len(text) == 2

    @pytest.mark.parametrize(
        "kind,params,solver,iters,message",
        [
            ("corridor", None, "priest", 0, "n_outer must be at least 1"),
            ("corridor", None, "multiagent", 5, "expects a square-antipodal scenario"),
            ("random-static", {"dim": 3}, "batch", 5, "the batch solver is planar"),
            (None, None, "single", 5, "No such file"),
        ],
    )
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys, kind, params, solver, iters, message):
        # as argparse ends a usage error: status 2 and one stderr line, no traceback
        from trajopt.bench.cli import main

        scn = tmp_path / "scenario.json"
        if kind is not None:
            save_scenario(gen_scenario(kind, params, seed=0), scn)
        args = ["run", "--scenario", str(scn), "--solver", solver, "--seed", "0", "--iters", str(iters)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("trajopt: error: ") and message in err[0]

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_scenario_file_is_one_error_line(self, tmp_path, capsys, name):
        from trajopt.bench.cli import main

        scn = tmp_path / "scenario.json"
        scn.write_text(_malformed(name))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--solver", "single", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("trajopt: error: ") and MALFORMED[name][1] in err[0]
        assert not out.exists()

    def test_report_without_results_is_status_one(self, tmp_path, capsys):
        from trajopt.bench.cli import main

        summary = tmp_path / "summary.csv"
        assert main(["report", "--in", str(tmp_path), "--out", str(summary)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"no results.csv found under {tmp_path}"]
        assert not summary.exists()

    def test_identical_invocations_byte_identical_modulo_wall(self, tmp_path):
        from trajopt.bench.cli import main

        scn = tmp_path / "scenario.json"
        main(["gen", "--kind", "corridor", "--seed", "1", "--out", str(scn)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["run", "--scenario", str(scn), "--solver", "single", "--seed", "2", "--iters", "150", "--out", str(out)])
            rows = (out / "results.csv").read_text().splitlines()
            stripped = ["," .join(r.split(",")[:-1]) for r in rows]  # drop wall_time_ms
            outs.append("\n".join(stripped).encode())
        assert outs[0] == outs[1]
