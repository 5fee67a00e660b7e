"""Solver outputs pinned to values recorded before the shared polar kernel.

Every solver was routed through trajopt.geometry (one polar kernel, one stall
rule) without meaning to change what it computes.  These runs hold it to
that: coefficient norms, a few trajectory samples and residuals to 1e-9, and
iteration counts and flags exactly.  The multi-agent square-antipodal solve
amplifies a rounding-level change to about 1e-3 within 30 iterations (the
agents cross at the centre), so passing there means bit-for-bit the same;
its values were recorded again when the solver moved to coefficient space,
when its polar step moved to the radial form, when its coefficient step
moved to the eigenbasis of E'E and when each mode got its own factor block
(see test_joint_square_antipodal).  The single-solver values were
recorded again when its sweep moved to the radial form.
"""

import numpy as np
import pytest

from trajopt import solver_batch, solver_multiagent, solver_priest, solver_single
from trajopt.basis import build_basis
from trajopt.bench import gen_scenario, runner

ATOL = 1e-9
SAMPLES = [10, 50, 90]


def _basis(scenario):
    h = scenario.horizon
    return build_basis(h.t0, h.tf, h.n_p, degree=10)


@pytest.mark.parametrize(
    "kind,params,pinned",
    [
        (
            "corridor",
            None,
            dict(
                xi_norm=70.78696662755456,
                pos=[
                    [0.5604969511334847, -0.28662512140517676],
                    [6.074156826255861, -0.21251850803385913],
                    [11.558226694611527, -0.25702494400092796],
                ],
                residual_max=0.0028239543441250237,
                iterations=300,
                converged=False,
                n_factorizations=21,
            ),
        ),
        (
            "random-static",
            {"dim": 3},
            dict(
                xi_norm=66.77498813174465,
                pos=[
                    [1.8091954301429185, 0.1041293044029139, 0.002427130288415545],
                    [6.216937692709978, 0.31651369851566935, 0.026303375488459547],
                    [10.674575539907266, 0.10242748368821265, 0.00750872574889281],
                ],
                residual_max=1.7763568394002505e-15,
                iterations=1,
                converged=True,
                n_factorizations=1,
            ),
        ),
    ],
)
def test_single(kind, params, pinned):
    scenario = gen_scenario(kind, params, seed=0)
    sol = solver_single.solve_single(runner.single_problem_from_scenario(scenario, _basis(scenario)))
    assert np.linalg.norm(sol.state.xi) == pytest.approx(pinned["xi_norm"], abs=ATOL)
    np.testing.assert_allclose(sol.trajectory.pos[SAMPLES], pinned["pos"], rtol=0, atol=ATOL)
    assert sol.residual_max == pytest.approx(pinned["residual_max"], abs=ATOL)
    assert (sol.iterations, sol.converged, sol.n_factorizations) == (
        pinned["iterations"],
        pinned["converged"],
        pinned["n_factorizations"],
    )


def test_batch_dynamic_flow():
    scenario = gen_scenario("dynamic-flow", seed=0)
    problem = runner.batch_problem_from_scenario(scenario, _basis(scenario))
    ranked = solver_batch.solve_batch_opt(problem, solver_batch.BatchParams(max_iter=20), seed=0)
    assert np.linalg.norm(ranked.state.xi) == pytest.approx(265.3456452692076, abs=ATOL)
    np.testing.assert_allclose(
        ranked.trajectories[0].pos[SAMPLES],
        [
            [0.5124128460303032, -0.02765895048023883],
            [6.125288864631013, -0.004120877261746165],
            [11.60844701557522, 0.07583845836815252],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert ranked.residual_max.sum() == pytest.approx(24.804641293551576, abs=ATOL)
    assert (ranked.iterations, int(ranked.feasible.sum()), ranked.best_index, ranked.n_factorizations) == (20, 0, None, 6)


def test_batch_two_circles_dynamic_flow():
    """A footprint of two circles off the body centre: its collision rows
    place the circles by the heading copies, so this pins what the centred
    footprint above cannot.  Recorded when the rows were so placed."""
    scenario = gen_scenario("dynamic-flow", seed=0)
    scenario.robot.footprint_offsets = [0.3, -0.3]
    problem = runner.batch_problem_from_scenario(scenario, _basis(scenario))
    ranked = solver_batch.solve_batch_opt(problem, solver_batch.BatchParams(max_iter=40), seed=0)
    assert np.linalg.norm(ranked.state.xi) == pytest.approx(298.2330199028967, abs=ATOL)
    np.testing.assert_allclose(
        ranked.best.pos[SAMPLES],
        [
            [0.508860302433727, -0.012447599238327604],
            [6.043877416697465, -0.5053240742931244],
            [11.612782499020135, -0.05947722490739695],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert ranked.residual_max.sum() == pytest.approx(8.143240194871195, abs=ATOL)
    assert (ranked.iterations, int(ranked.feasible.sum()), ranked.best_index, ranked.n_factorizations) == (40, 26, 18, 6)


def test_priest_barn_one_outer_iteration():
    """One outer iteration is one draw from the initial distribution, so this
    holds the projection and the elite choice whatever the sampler's later
    draws do."""
    scenario = gen_scenario("barn-like", seed=0)
    basis = _basis(scenario)
    res = solver_priest.priest_optimize(
        runner.priest_setup_from_scenario(scenario, basis),
        runner._barn_c1(scenario),
        runner.default_sampling_distribution(scenario, basis),
        solver_priest.PriestParams(n_outer=1),
    )
    assert np.linalg.norm(res.best.projected) == pytest.approx(19.904170139910388, abs=ATOL)
    np.testing.assert_allclose(
        res.best.trajectory.pos[SAMPLES],
        [
            [0.3031310140809702, 0.019987924127540743],
            [5.227369130759851, -0.11986695850005485],
            [9.05682478374452, -0.10755944244422752],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert res.best.residual == pytest.approx(0.0, abs=ATOL)


def test_batch_dynamic_flow_tight_kinematic_limits():
    """Speed and acceleration limits low enough that their rows bind: the
    acceleration rows in every iteration, the speed rows in some, so the
    residual pass runs its active kinematic branch as well as the skip of
    an all-zero family."""
    scenario = gen_scenario("dynamic-flow", {"v_max": 2.0, "a_max": 0.3}, seed=0)
    problem = runner.batch_problem_from_scenario(scenario, _basis(scenario))
    ranked = solver_batch.solve_batch_opt(problem, solver_batch.BatchParams(max_iter=20), seed=0)
    assert np.linalg.norm(ranked.state.xi) == pytest.approx(262.0577003039869, abs=ATOL)
    np.testing.assert_allclose(
        ranked.trajectories[0].pos[SAMPLES],
        [
            [0.18383524427375303, 0.04089902748154102],
            [6.100590898231734, 0.07427840259028393],
            [11.855253517950674, -0.03222532389503634],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert ranked.residual_max.sum() == pytest.approx(30.968677911784038, abs=ATOL)
    assert ranked.residual_norm.sum() == pytest.approx(206.0495751344471, abs=ATOL)
    assert (ranked.iterations, int(ranked.feasible.sum()), ranked.best_index, ranked.n_factorizations) == (20, 0, None, 2)


def test_priest_barn_tight_kinematic_limits():
    """One outer iteration with speed and acceleration limits low enough that
    their rows bind: the acceleration rows in every inner iteration, the
    speed rows in some."""
    scenario = gen_scenario("barn-like", {"v_max": 1.8, "a_max": 0.5}, seed=0)
    basis = _basis(scenario)
    res = solver_priest.priest_optimize(
        runner.priest_setup_from_scenario(scenario, basis),
        runner._barn_c1(scenario),
        runner.default_sampling_distribution(scenario, basis),
        solver_priest.PriestParams(n_outer=1),
    )
    assert np.linalg.norm(res.best.projected) == pytest.approx(19.179214342321078, abs=ATOL)
    np.testing.assert_allclose(
        res.best.trajectory.pos[SAMPLES],
        [
            [0.11320405439335769, 0.008752966876700288],
            [4.575304723144513, -0.19959189419578416],
            [9.101234108497893, 0.09234704032370335],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert res.best.residual == pytest.approx(0.145424093567487, abs=ATOL)
    assert res.best.aug_cost == pytest.approx(29.005573194607432, abs=ATOL)
    assert res.history[0]["min_residual"] == pytest.approx(0.07171948738255574, abs=ATOL)


def test_joint_square_antipodal():
    """Pins the coefficient-space multi-agent arithmetic: the straight-line
    start from basis.straight_line_coeffs, one stacked reduced factor per
    rho level of the blocks Q_axis + rho * lam_k * P'P, one per mode k of
    E'E, applied by qpcore.apply_primal to the right-hand sides
    -rho * (E V)' b P and the boundary values in the eigenbasis V, the
    radial-form polar step
    (geometry.radial_target) and the reconstruction reused as the next
    target.  The solve amplifies rounding by about 1e13 here, so this is
    bit-for-bit for that arithmetic; a change to its summation order moves
    these values (tests/test_solver_multiagent.py holds it to the dense A_fo
    angle iteration per step instead).
    """
    scenario = gen_scenario("square-antipodal", {"n_agents": 4}, seed=0)
    sol = solver_multiagent.solve_joint(runner.multiagent_problem_from_scenario(scenario, _basis(scenario)))
    assert np.linalg.norm(sol.state.xi) == pytest.approx(32.538425007239056, abs=ATOL)
    np.testing.assert_allclose(
        sol.trajectories[0].pos[SAMPLES],
        [
            [-2.94861447267574, -2.97165803832065, 0.9827704246494966],
            [-0.21998741071072067, 0.38907926092427964, 0.6931418935458364],
            [2.9470243231627333, 2.9897002255863088, 0.9860378561577023],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert sol.residual_norm == pytest.approx(0.0035372649359267103, abs=ATOL)
    assert sol.min_pair_distance == pytest.approx(0.8784955132791243, abs=ATOL)
    assert sol.min_pair_distance >= 2.0 * scenario.robot.shape[0]
    assert (sol.iterations, sol.converged) == (103, True)


@pytest.mark.parametrize(
    "kind,params,seed,pinned",
    [
        (
            "random-static",
            {"dim": 3},
            1,
            dict(
                n_exec=101,
                pos_norm=64.83400457498816,
                pos=[
                    [1.663111647803197, -0.0049279163120313505, 0.045724769978640965],
                    [6.137204995557784, 0.0016613770881988839, 0.0971604432754669],
                    [9.690965806684147, 0.0018259451712298376, 0.042720661267306725],
                ],
                iters=[1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
                collided=False,
            ),
        ),
        (
            "dynamic-flow",
            None,
            0,
            dict(
                n_exec=101,
                pos_norm=57.235616664465404,
                pos=[
                    [0.49551068905521956, 0.00036750854215857965],
                    [4.965809752884967, 0.3880532428761259],
                    [9.666471380471021, -0.2949144211874605],
                ],
                iters=[65, 40, 40, 40, 40, 40, 13, 6, 1, 1],
                collided=False,
            ),
        ),
    ],
)
def test_receding_horizon_single(kind, params, seed, pinned):
    """The receding-horizon loop on the single solver: each step warm-starts
    from the last one's state, shifted by the executed samples, and sweeps on
    past its budget while its plan is uncertified (the dynamic-flow episode's
    first step takes 25 extra sweeps), so this holds the warm sweeps over a
    whole episode.  Executed positions to 1e-9, step count and sweeps per
    step exactly."""
    result = runner.receding_horizon_run(gen_scenario(kind, params, seed=seed), solver="single", n_steps=10)
    pos = result.executed.pos
    assert len(pos) == pinned["n_exec"]
    assert np.linalg.norm(pos) == pytest.approx(pinned["pos_norm"], abs=ATOL)
    np.testing.assert_allclose(pos[[10, len(pos) // 2, -1]], pinned["pos"], rtol=0, atol=ATOL)
    assert [rec.metrics.iters for rec in result.records] == pinned["iters"]
    assert (result.collided, result.reached_goal) == (pinned["collided"], False)


def test_receding_horizon_batch():
    """The receding-horizon loop on the batch solver: each step warm-starts
    the batch from the last one's state and executes the member the runner
    picks, so this holds that pick over an episode.  Executed positions to
    1e-9, step count and iterations per step exactly."""
    result = runner.receding_horizon_run(gen_scenario("dynamic-flow", seed=0), solver="batch", n_steps=4, step_budget=15)
    pos = result.executed.pos
    assert len(pos) == 41
    assert np.linalg.norm(pos) == pytest.approx(11.971401325765815, abs=ATOL)
    np.testing.assert_allclose(
        pos[[10, len(pos) // 2, -1]],
        [
            [0.49063604036891917, -0.007237481713350088],
            [1.6173646718946397, -0.038794703967541096],
            [3.2230658072434086, -0.058663519343559394],
        ],
        rtol=0,
        atol=ATOL,
    )
    assert [rec.metrics.iters for rec in result.records] == [15, 15, 15, 15]
    assert (result.collided, result.reached_goal) == (False, False)
