"""What every solver's report promises, over generated scenes.

Hypothesis draws a scene kind and a seed; each solve must return, never
raise, on a valid scenario, and its flags must mean what they say:

- single: converged implies residual_max <= tol;
- multiagent: converged implies residual_norm <= tol_norm;
- batch: a best_index plan passes check_collision_free against the raw
  scenario obstacles.

The single and multi-agent solves run their default budgets, which
converge on about a quarter and all of the drawn scenes; the batch solve
runs 20 members for 60 iterations, which give a best plan on about nine
in ten.  An example takes 20-40 ms.  Run with --hypothesis-profile=ci for
the same examples every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from trajopt import solver_batch, solver_multiagent, solver_single
from trajopt.basis import build_basis
from trajopt.bench import check_collision_free, gen_scenario, runner
from trajopt.bench.scenarios import KINDS

PLANAR = [("corridor", {}), ("random-static", {}), ("dynamic-flow", {}), ("barn-like", {}), ("all-infeasible-probe", {})]
SEEDS = st.integers(0, 2**31 - 1)


def _basis(scenario):
    h = scenario.horizon
    return build_basis(h.t0, h.tf, h.n_p, degree=10)


def _check_single(kind, params, seed):
    scenario = gen_scenario(kind, params, seed=seed)
    solve_params = solver_single.SingleParams()
    sol = solver_single.solve_single(runner.single_problem_from_scenario(scenario, _basis(scenario)), solve_params)
    assert sol.iterations <= solve_params.max_iter
    assert not sol.converged or sol.residual_max <= solve_params.tol


def _check_multiagent(n_agents, seed):
    scenario = gen_scenario("square-antipodal", {"n_agents": n_agents}, seed=seed)
    problem = runner.multiagent_problem_from_scenario(scenario, _basis(scenario))
    params = solver_multiagent.JointParams()
    sol = solver_multiagent.solve_joint(problem, params)
    assert not sol.converged or sol.residual_norm <= params.tol_norm


def _check_batch(kind, params, seed):
    scenario = gen_scenario(kind, params, seed=seed)
    problem = runner.batch_problem_from_scenario(scenario, _basis(scenario), n_batch=20)
    ranked = solver_batch.solve_batch_opt(problem, solver_batch.BatchParams(max_iter=60), seed=seed)
    if ranked.best_index is not None:
        ok, worst = check_collision_free(ranked.best, scenario)
        assert ok, f"the best plan enters an obstacle by {worst}"


@settings(max_examples=6, deadline=None)
@given(scene=st.sampled_from(PLANAR + [("random-static", {"dim": 3})]), seed=SEEDS)
def test_single_converged_means_within_tol(scene, seed):
    _check_single(*scene, seed)


@settings(max_examples=4, deadline=None)
@given(n_agents=st.sampled_from([4, 6, 8]), seed=SEEDS)
def test_multiagent_converged_means_within_tol_norm(n_agents, seed):
    _check_multiagent(n_agents, seed)


@settings(max_examples=6, deadline=None)
@given(scene=st.sampled_from(PLANAR), seed=SEEDS)
def test_batch_best_plan_is_collision_free(scene, seed):
    _check_batch(*scene, seed)


def test_every_scene_kind_is_drawn():
    assert {kind for kind, _ in PLANAR} | {"square-antipodal"} == set(KINDS)
