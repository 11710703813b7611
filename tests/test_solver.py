import dataclasses
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from sliceprov import demand, evaluation, planner
from sliceprov import simplex as simplex_module
from sliceprov import solver as solver_module
from sliceprov.milp import MilpModel, MilpVariable, make_constraint
from sliceprov.simplex import BASIC, Basis, solve_lp
from sliceprov.solver import (
    SolverConfig,
    export_lp,
    import_solution,
    parse_lp,
    solve_model,
)

INF = np.inf


# ---------------------------------------------------------------------------
# Bounded-variable simplex
# ---------------------------------------------------------------------------


def test_simplex_small_known_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x, y -> (4, 0), value 12.
    res = solve_lp(
        np.array([[1.0, 1.0], [1.0, 3.0]]),
        np.array([4.0, 6.0]),
        ["<=", "<="],
        np.array([-3.0, -2.0]),
        np.zeros(2),
        np.array([INF, INF]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-12.0, abs=1e-9)
    assert res.x == pytest.approx([4.0, 0.0], abs=1e-9)


def test_simplex_bounded_variables_and_bound_flip():
    # min -x - y with x <= 2, y <= 3 and x + y >= 1: optimum at both uppers.
    res = solve_lp(
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        [">="],
        np.array([-1.0, -1.0]),
        np.zeros(2),
        np.array([2.0, 3.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0, abs=1e-9)


def test_simplex_equality_rows():
    # min x + y s.t. x + y = 2, x - y = 0 -> (1, 1), value 2.
    res = solve_lp(
        np.array([[1.0, 1.0], [1.0, -1.0]]),
        np.array([2.0, 0.0]),
        ["=", "="],
        np.array([1.0, 1.0]),
        np.zeros(2),
        np.array([INF, INF]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_simplex_infeasible():
    res = solve_lp(
        np.array([[1.0], [1.0]]),
        np.array([1.0, 3.0]),
        ["<=", ">="],
        np.array([1.0]),
        np.zeros(1),
        np.array([INF]),
    )
    assert res.status == "infeasible"


def test_simplex_unbounded():
    res = solve_lp(
        np.array([[1.0]]),
        np.array([0.0]),
        [">="],
        np.array([-1.0]),
        np.zeros(1),
        np.array([INF]),
    )
    assert res.status == "unbounded"


def test_optimal_basis_spans_structurals_and_slacks():
    # Three structurals and two rows: one status per structural and slack.
    res = solve_lp(
        np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]]),
        np.array([4.0, 1.0]),
        ["<=", ">="],
        np.array([-1.0, -2.0, -3.0]),
        np.zeros(3),
        np.array([INF, 2.0, INF]),
    )
    assert res.status == "optimal"
    assert res.basis.basic.shape == (2,)
    assert res.basis.status.shape == (3 + 2,)
    assert set(np.flatnonzero(res.basis.status == BASIC)) == set(res.basis.basic)


def test_cold_solve_from_an_infeasible_slack_basis():
    # The slack basis is primal infeasible (x + y >= 2 fails at x = y = 0),
    # and the negative cost on x points at its infinite upper bound.
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 3.0])
    relations = [">=", "<="]
    c = np.array([-1.0, 1.0])
    lower, upper = np.zeros(2), np.array([INF, INF])
    res = solve_lp(A, b, relations, c, lower, upper)
    _check_against_reference(res, A, b, relations, c, lower, upper, "bounded")
    assert res.objective == pytest.approx(-3.0, abs=1e-9)
    # Without the row that caps x - y, x grows without limit.
    res = solve_lp(A[:1], b[:1], relations[:1], c, lower, upper)
    assert res.status == "unbounded"


def _random_bounded_lps(count=150):
    """Small random LPs with integer data, bounded variables and mixed row
    relations, some of them infeasible."""
    rng = np.random.default_rng(42)
    for _ in range(count):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        lower = np.zeros(n)
        upper = rng.uniform(0.5, 5.0, size=n)
        relations = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
        x0 = rng.uniform(lower, upper)
        b = A @ x0 + rng.integers(-1, 2, size=m)
        yield A, b, relations, c, lower, upper


def _check_against_reference(ours, A, b, relations, c, lower, upper, label):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rhs, rel in zip(A, b, relations):
        if rel == "<=":
            A_ub.append(row); b_ub.append(rhs)
        elif rel == ">=":
            A_ub.append(-row); b_ub.append(-rhs)
        else:
            A_eq.append(row); b_eq.append(rhs)
    ref = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if ref.status == 2:
        assert ours.status == "infeasible", label
        return
    assert ref.status == 0
    assert ours.status == "optimal", label
    assert ours.objective == pytest.approx(ref.fun, abs=1e-6), label
    # Returned point must actually be feasible.
    assert np.all(ours.x >= lower - 1e-7), label
    assert np.all(ours.x <= upper + 1e-7), label
    lhs = A @ ours.x
    for value, rhs, rel in zip(lhs, b, relations):
        if rel == "<=":
            assert value <= rhs + 1e-6, label
        elif rel == ">=":
            assert value >= rhs - 1e-6, label
        else:
            assert value == pytest.approx(rhs, abs=1e-6), label


def test_simplex_matches_reference_solver_on_random_lps():
    for trial, lp in enumerate(_random_bounded_lps()):
        _check_against_reference(solve_lp(*lp), *lp, f"trial {trial}")


def test_warm_start_from_parent_basis_matches_cold_and_reference():
    # Branch on the most fractional variable of each random LP (or its first
    # variable when none is fractional) and re-solve both children from the
    # parent's optimal basis and from scratch.
    warm_iterations = cold_iterations = children = infeasible = 0
    for trial, (A, b, relations, c, lower, upper) in enumerate(_random_bounded_lps()):
        parent = solve_lp(A, b, relations, c, lower, upper)
        if parent.status != "optimal":
            continue
        assert parent.basis is not None
        k = int(np.argmax(np.abs(parent.x - np.round(parent.x))))
        value = parent.x[k]
        bounds = []
        if np.floor(value) >= lower[k]:
            hi = upper.copy()
            hi[k] = np.floor(value)
            bounds.append((lower, hi))
        if np.ceil(value) <= upper[k]:
            lo = lower.copy()
            lo[k] = np.ceil(value)
            bounds.append((lo, upper))
        for side, (lo, hi) in enumerate(bounds):
            label = f"trial {trial} child {side}"
            warm = solve_lp(A, b, relations, c, lo, hi, basis=parent.basis)
            cold = solve_lp(A, b, relations, c, lo, hi)
            _check_against_reference(warm, A, b, relations, c, lo, hi, label)
            _check_against_reference(cold, A, b, relations, c, lo, hi, label)
            warm_iterations += warm.iterations
            cold_iterations += cold.iterations
            children += 1
            infeasible += warm.status == "infeasible"
    assert children > 150 and infeasible > 0
    assert warm_iterations <= cold_iterations


def test_warm_start_falls_back_to_cold_on_singular_basis():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.array([4.0, 9.0])
    c = np.array([-1.0, -1.0])
    lower, upper = np.zeros(2), np.array([3.0, 3.0])
    cold = solve_lp(A, b, ["<=", "<="], c, lower, upper)
    # Both structural columns basic: [1, 2] and [2, 4] are collinear.
    singular = Basis(basic=np.array([0, 1]),
                     status=np.array([2, 2, 0, 0], dtype=np.int8))
    warm = solve_lp(A, b, ["<=", "<="], c, lower, upper, basis=singular)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    with pytest.raises(ValueError):
        solve_lp(A, b, ["<=", "<="], c, lower, upper,
                 basis=Basis(basic=np.array([0]), status=singular.status))


@pytest.mark.parametrize(
    "field, value",
    [("relations", ["<="]), ("b", [5.0]), ("c", [1.0, 1.0, 1.0]), ("lower", [0.0]),
     ("upper", [[10.0, 10.0]])],
)
def test_solve_lp_rejects_inputs_that_do_not_match_the_matrix(field, value):
    lp = dict(A=[[1.0, 0.0], [1.0, 1.0]], b=[5.0, 2.0], relations=["<=", ">="],
              c=[1.0, 1.0], lower=[0.0, 0.0], upper=[10.0, 10.0])
    assert solve_lp(**lp).objective == pytest.approx(2.0)
    with pytest.raises(ValueError):
        solve_lp(**{**lp, field: value})
    with pytest.raises(ValueError):
        solve_lp(**{**lp, "A": [1.0, 0.0]})


@pytest.mark.parametrize("bound", [-INF, np.nan])
def test_non_finite_lower_bounds_are_rejected(bound):
    # At an infinite lower bound the simplex would start the variable at 0
    # and report min x s.t. x >= -5 as 0.
    with pytest.raises(ValueError):
        solve_lp([[1.0]], [-5.0], [">="], [1.0], [bound], [INF])
    with pytest.raises(ValueError):
        MilpVariable("x", "nonneg_integer", bound, 3.0)
    with pytest.raises(ValueError):
        MilpVariable("x", "nonneg_integer", 0.0, -bound)


@pytest.fixture
def count_inversions(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counting_inv(matrix):
        calls.append(matrix.shape)
        return inv(matrix)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls


def test_slack_start_inverts_nothing(count_inversions):
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0], [0.0, 1.0, 1.0]])
    b = np.array([4.0, 1.0, 3.0])
    relations = ["<=", ">=", "="]
    c = np.array([-1.0, -2.0, -3.0])
    lower, upper = np.zeros(3), np.array([INF, 2.0, INF])
    res = solve_lp(A, b, relations, c, lower, upper)
    _check_against_reference(res, A, b, relations, c, lower, upper, "slack start")
    assert count_inversions == [] and res.factorizations == 0 and res.start == "cold"
    # A singular warm basis is inverted once, then the slack start takes over.
    singular = Basis(basic=np.array([0, 0, 1]), status=res.basis.status)
    warm = solve_lp(A, b, relations, c, lower, upper, basis=singular)
    assert len(count_inversions) == warm.factorizations == 1 and warm.start == "cold"
    assert warm.objective == pytest.approx(res.objective, abs=1e-9)


def test_siblings_continue_from_their_parents_tableau(count_inversions):
    A, b, relations, c, lower, upper = _mixed_lp()
    parent = solve_lp(A, b, relations, c, lower, upper)
    assert parent.start == "cold" and parent.basis.tableau is not None
    final = parent.basis.tableau.T.copy()
    children = [(lower, np.array([2.0, INF, INF])), (np.array([3.0, 0.0, 0.0]), upper)]
    results = [solve_lp(A, b, relations, c, lo, hi, basis=parent.basis) for lo, hi in children]
    assert [(r.start, r.factorizations) for r in results] == [("continued", 0)] * 2
    assert count_inversions == []
    # Each child pivots on a copy: the parent's tableau is left as it was.
    assert np.array_equal(parent.basis.tableau.T, final)
    # Without the tableau, each child inverts the parent's basis instead,
    # and reaches the same optimum.
    bare = replace(parent.basis, tableau=None)
    for (lo, hi), res in zip(children, results):
        _check_against_reference(res, A, b, relations, c, lo, hi, "continued")
        inverted = solve_lp(A, b, relations, c, lo, hi, basis=bare)
        assert (inverted.start, inverted.factorizations) == ("inverted", 1)
        assert inverted.status == res.status == "optimal"
        assert inverted.objective == pytest.approx(res.objective, abs=1e-9)
    assert len(count_inversions) == 2


def test_a_continued_child_moves_its_basic_values_with_a_nonbasic_bound():
    # max x + 2y s.t. x + y <= 4, x <= 3, y <= 2.5: y is nonbasic at its
    # upper bound, and x = 1.5 is basic.  Lowering y's bound to 2 moves x to
    # 2, which stays feasible, so the child needs no pivot, only the last
    # pricing.
    A, b, c = np.array([[1.0, 1.0]]), np.array([4.0]), np.array([-1.0, -2.0])
    parent = solve_lp(A, b, ["<="], c, np.zeros(2), np.array([3.0, 2.5]))
    assert list(parent.x) == [1.5, 2.5] and list(parent.basis.basic) == [0]
    child = solve_lp(A, b, ["<="], c, np.zeros(2), np.array([3.0, 2.0]), basis=parent.basis)
    assert child.start == "continued" and child.iterations == 1
    assert list(child.x) == [2.0, 2.0] and child.objective == -6.0


def _mixed_lp():
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0], [2.0, 1.0, -1.0]])
    b = np.array([8.0, 1.0, 6.0])
    relations = ["<=", ">=", "<="]
    c = np.array([-2.0, -1.0, -3.0])
    return A, b, relations, c, np.zeros(3), np.full(3, INF)


@pytest.mark.parametrize("change", ["matrix", "relations"])
def test_a_basis_reused_on_another_lp_is_factorized_again(change):
    # One Basis, without the tableau of the solve that found it, on two LPs
    # of the same shape: each solve inverts it over its own columns.
    A, b, relations, c, lower, upper = _mixed_lp()
    basis = replace(solve_lp(A, b, relations, c, lower, upper).basis, tableau=None)
    assert sorted(basis.basic) != [3, 4, 5]  # not the slack basis
    other_A, other_relations = A.copy(), list(relations)
    if change == "matrix":
        other_A[0, basis.basic[basis.basic < 3][0]] = 3.0
    else:
        other_relations[2] = ">="
    for lp in ((A, b, relations, c, lower, upper), (other_A, b, other_relations, c, lower, upper)):
        res = solve_lp(*lp, basis=basis)
        assert res.factorizations == 1
        _check_against_reference(res, *lp, change)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def _knapsack_model():
    model = MilpModel()
    values = {"x1": 10.0, "x2": 6.0, "x3": 4.0}
    weights = {"x1": 5.0, "x2": 4.0, "x3": 3.0}
    for name in values:
        model.add_variable(MilpVariable(name, "binary", 0.0, 1.0))
    model.add_constraint(
        make_constraint("cap", [(w, n) for n, w in weights.items()], "<=", 10)
    )
    model.set_objective(values)
    return model


def test_bnb_knapsack():
    res = solve_model(_knapsack_model())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(16.0)
    assert res.assignment == {"x1": 1, "x2": 1, "x3": 0}
    assert res.gap == 0.0


def test_bnb_integer_variables():
    # max 2x + 3y s.t. 4x + 5y <= 14, x, y integer in [0, 3] -> y = 2, x = 1.
    model = MilpModel()
    model.add_variable(MilpVariable("x", "nonneg_integer", 0.0, 3.0))
    model.add_variable(MilpVariable("y", "nonneg_integer", 0.0, 3.0))
    model.add_constraint(make_constraint("cap", [(4, "x"), (5, "y")], "<=", 14))
    model.set_objective({"x": 2.0, "y": 3.0})
    res = solve_model(model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0)


def test_bnb_infeasible_model():
    model = MilpModel()
    model.add_variable(MilpVariable("x", "nonneg_integer", 1.0, 2.0))
    model.add_constraint(make_constraint("no", [(1, "x")], "<=", 0))
    res = solve_model(model)
    assert res.status == "infeasible"
    assert res.assignment == {}


def test_bnb_warm_start_used_and_validated():
    model = _knapsack_model()
    good = {"x1": 1, "x2": 1, "x3": 0}
    res = solve_model(model, warm_start=good)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(16.0)
    # An infeasible warm start is ignored, not trusted.
    bad = {"x1": 1, "x2": 1, "x3": 1}
    res = solve_model(model, warm_start=bad)
    assert res.objective == pytest.approx(16.0)


@pytest.mark.parametrize(
    "make_model", [_knapsack_model, lambda: _mixed_model()], ids=["knapsack", "mixed"]
)
def test_bnb_solves_each_node_lp_once(monkeypatch, make_model):
    calls = []

    def counting_solve_lp(A, b, relations, c, lower, upper, **kwargs):
        calls.append((lower.tobytes() + upper.tobytes(), kwargs.get("basis")))
        return solve_lp(A, b, relations, c, lower, upper, **kwargs)

    monkeypatch.setattr(solver_module, "solve_lp", counting_solve_lp)
    res = solve_model(make_model())
    assert res.status == "optimal"
    assert len(calls) == res.node_count
    # No node (the root included) is solved twice; only the root is solved
    # cold, every child continues from its parent's final tableau.
    assert len({bounds for bounds, _ in calls}) == len(calls)
    assert calls[0][1] is None
    assert all(basis.tableau is not None for _, basis in calls[1:])
    assert (res.cold_lps, res.continued_lps, res.inverted_lps) == (1, len(calls) - 1, 0)
    assert res.factorizations == 0

    calls.clear()
    res = solve_model(make_model(), SolverConfig(node_limit=1))
    assert len(calls) == res.node_count == 1
    assert res.assignment


def test_an_integral_lp_point_that_breaks_a_row_is_not_taken(monkeypatch):
    # The LP "optimum" takes every item, 12 units of weight against a
    # capacity of 10: integral, so no branch follows, but not a plan.
    def lying_solve_lp(A, b, relations, c, lower, upper, **kwargs):
        x = np.ones(len(c))
        return simplex_module.LpResult(status="optimal", objective=float(c @ x), x=x)

    monkeypatch.setattr(solver_module, "solve_lp", lying_solve_lp)
    res = solve_model(_knapsack_model())
    assert res.node_count == 1
    assert res.assignment == {"x1": 0, "x2": 0, "x3": 0} and res.objective == 0.0


def _provisioning_model(slices, variant):
    """The MILP of one catalog request on the default graph."""
    catalog = {spec.id: spec for spec in demand.slice_catalog()}
    specs = [
        dataclasses.replace(catalog[type_name], id=f"s{i}",
                            user_count=demand.UserCountPmf.deterministic(users))
        for i, (type_name, users) in enumerate(slices)
    ]
    graph = evaluation.GraphConfig().build()
    background = demand.BackgroundModel.from_graph(
        graph, mean_frac=evaluation.DEFAULT_BACKGROUND_MEAN_FRAC,
        std_frac=evaluation.DEFAULT_BACKGROUND_STD_FRAC,
    )
    return planner.joint_model(specs, graph, planner.variant_from_name(variant), background)


_PROVISIONING_MODELS = pytest.mark.parametrize(
    "slices, variant",
    [((("type1", 30),), "SP-B"), ((("type1", 50), ("type2", 200)), "JP")],
    ids=["SP-B", "JP"],
)


@_PROVISIONING_MODELS
def test_each_child_continues_from_its_parents_tableau(monkeypatch, count_inversions,
                                                       slices, variant):
    model = _provisioning_model(slices, variant)
    lps = []

    def recording_solve_lp(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        lps.append((res.iterations, res.start))
        return res

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    res = solve_model(model)
    assert res.status == "optimal" and len(lps) == res.node_count > 1
    assert res.iterations == sum(it for it, _ in lps)
    assert [start for _, start in lps] == ["cold"] + ["continued"] * (len(lps) - 1)
    assert (res.cold_lps, res.continued_lps, res.inverted_lps) == (1, len(lps) - 1, 0)
    assert res.factorizations == 0 and count_inversions == []
    assert 0 < res.tableau_bytes <= solver_module._TABLEAU_BUDGET


@_PROVISIONING_MODELS
def test_children_that_invert_reach_the_same_optimum(monkeypatch, slices, variant):
    model = _provisioning_model(slices, variant)
    continued = solve_model(model)
    # With no room for a tableau, every child inverts its parent's basis.
    monkeypatch.setattr(solver_module, "_TABLEAU_BUDGET", 0)
    inverted = solve_model(model)
    assert (inverted.cold_lps, inverted.continued_lps) == (1, 0)
    assert inverted.inverted_lps == inverted.factorizations == inverted.node_count - 1
    assert inverted.tableau_bytes == 0
    assert continued.status == inverted.status == "optimal"
    assert inverted.objective == pytest.approx(continued.objective, rel=1e-12)
    for res in (continued, inverted):
        assert import_solution(model, res.assignment) == pytest.approx(res.objective, rel=1e-12)


def test_kept_tableaux_stay_within_the_budget(monkeypatch):
    model = _provisioning_model((("type1", 50),), "SP-B")
    free = solve_model(model)
    # Room for two tableaux, fewer than the search keeps at once.
    rows, columns = free.lp_rows, len(model.variables) + free.lp_rows
    budget = 2 * 8 * (rows + 1) * columns
    assert free.tableau_bytes > budget
    monkeypatch.setattr(solver_module, "_TABLEAU_BUDGET", budget)
    # Every tableau a solve returned that is still alive when the next LP
    # starts, apart from the one that LP continues from and the last one
    # returned, which the search still holds, is one the search keeps.
    tableaux, most = [], [0]

    def recording_solve_lp(*args, basis=None):
        current = None if basis is None else basis.tableau
        alive = [ref() for ref in tableaux[:-1]]
        most[0] = max(most[0], sum(t.nbytes for t in alive
                                   if t is not None and t is not current))
        res = solve_lp(*args, basis=basis)
        if res.basis is not None:
            tableaux.append(weakref.ref(res.basis.tableau))
        return res

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    bounded = solve_model(model)
    assert 0 < most[0] <= bounded.tableau_bytes <= budget
    assert bounded.inverted_lps > 0 and bounded.continued_lps > 0
    assert bounded.objective == pytest.approx(free.objective, rel=1e-12)
    assert import_solution(model, bounded.assignment) == pytest.approx(bounded.objective)


def test_bnb_node_limit_reports_gap():
    model = _knapsack_model()
    res = solve_model(model, SolverConfig(node_limit=1))
    assert res.status in ("feasible_gap", "optimal")
    if res.status == "feasible_gap":
        assert res.gap > 0.0
    # The all-zero incumbent guarantees an assignment either way.
    assert res.assignment


# ---------------------------------------------------------------------------
# Presolve, tie rule and root bound
# ---------------------------------------------------------------------------


@pytest.fixture
def lp_shapes(monkeypatch):
    """The shape of the matrix of every LP that solve_model solves."""
    shapes = []

    def recording_solve_lp(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return solve_lp(A, *args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
    return shapes


def test_a_model_whose_rows_cannot_bind_solves_an_lp_without_rows(lp_shapes):
    model = MilpModel()
    model.add_variable(MilpVariable("x", "binary", 0.0, 1.0))
    model.add_variable(MilpVariable("y", "nonneg_integer", 0.0, 3.0))
    model.add_variable(MilpVariable("z", "nonneg_integer", 2.0, 2.0))
    # Greatest activity 7, least activity -3, and z fixed at 2.
    model.add_constraint(make_constraint("cap", [(1, "x"), (2, "y")], "<=", 7))
    model.add_constraint(make_constraint("floor", [(1, "x"), (-1, "y")], ">=", -3))
    model.add_constraint(make_constraint("fixed", [(1, "z")], "=", 2))
    model.set_objective({"x": 1.0, "y": 2.0, "z": -1.0})
    res = solve_model(model)
    assert res.status == "optimal" and res.lp_rows == 0
    assert res.assignment == {"x": 1, "y": 3, "z": 2}
    assert res.objective == 5.0 == import_solution(model, res.assignment)
    assert lp_shapes == [(0, 3)]


@pytest.mark.parametrize("relation, rhs", [("<=", 0), (">=", 9), ("=", 0)])
def test_a_row_no_point_of_the_bounds_satisfies_is_infeasible(relation, rhs):
    # x + y lies in [1, 3] over the bounds.
    model = MilpModel()
    model.add_variable(MilpVariable("x", "nonneg_integer", 1.0, 2.0))
    model.add_variable(MilpVariable("y", "binary", 0.0, 1.0))
    model.add_constraint(make_constraint("no", [(1, "x"), (1, "y")], relation, rhs))
    model.set_objective({"x": 1.0, "y": 1.0})
    res = solve_model(model)
    assert res.status == "infeasible" and res.assignment == {}
    assert res.lp_rows == 1 and res.root_bound == -INF


def _random_milps(count=80):
    """Small random MILPs with a known integer point, so all are feasible.
    About a third of the rows cannot bind under the bounds."""
    rng = np.random.default_rng(2020)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        A = rng.integers(-4, 5, size=(m, n))
        A[~A.any(axis=1), 0] = 1  # every row has a term
        upper = rng.integers(1, 5, size=n)
        x0 = rng.integers(0, upper + 1)
        least = np.minimum(A * upper, 0).sum(axis=1)
        greatest = np.maximum(A * upper, 0).sum(axis=1)
        relations, b = [], []
        for i in range(m):
            relation = str(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1]))
            loose = rng.random() < 1 / 3
            if relation == "<=":
                rhs = greatest[i] if loose else A[i] @ x0 + rng.integers(0, 3)
            elif relation == ">=":
                rhs = least[i] if loose else A[i] @ x0 - rng.integers(0, 3)
            else:
                rhs = A[i] @ x0
            relations.append(relation)
            b.append(int(rhs))
        yield A, np.array(b), relations, rng.integers(-5, 6, size=n), upper


def _highs_max(A, b, relations, c, lower, upper, integral):
    """HiGHS's optimum of max c'x over every row, or of its LP relaxation."""
    lb = np.where([r == "<=" for r in relations], -INF, b)
    ub = np.where([r == ">=" for r in relations], INF, b)
    ref = milp(-np.asarray(c), constraints=LinearConstraint(A, lb, ub),
               integrality=np.full(len(c), int(integral)), bounds=Bounds(lower, upper))
    assert ref.status == 0
    return -ref.fun


def test_random_milps_match_highs_and_check_out_on_every_row():
    dropped = 0
    for trial, (A, b, relations, c, upper) in enumerate(_random_milps()):
        model = MilpModel()
        names = [f"x{j}" for j in range(len(c))]
        for name, hi in zip(names, upper):
            model.add_variable(MilpVariable(name, "binary" if hi == 1 else "nonneg_integer",
                                            0.0, float(hi)))
        for i, (row, rhs, relation) in enumerate(zip(A, b, relations)):
            terms = [(int(a), name) for a, name in zip(row, names) if a]
            model.add_constraint(make_constraint(f"r{i}", terms, relation, int(rhs)))
        model.set_objective({name: float(cj) for name, cj in zip(names, c)})
        res = solve_model(model)
        assert res.status == "optimal", trial
        optimum = _highs_max(A, b, relations, c, 0, upper, integral=True)
        assert res.objective == pytest.approx(optimum, abs=1e-6), trial
        assert import_solution(model, res.assignment) == pytest.approx(res.objective), trial
        assert res.root_bound >= res.objective - 1e-6, trial
        dropped += len(relations) - res.lp_rows
    assert dropped > 20


@pytest.mark.parametrize("cheaper", [0, 1])
def test_columns_whose_costs_differ_by_an_ulp_tie_to_the_lower_index(cheaper):
    # Two identical columns price out at -1, one of them an ulp lower; from
    # the slack basis the first one enters, and the second then prices out
    # at an ulp, within the optimality tolerance.
    c = np.array([-1.0, -1.0])
    c[cheaper] = np.nextafter(-1.0, -INF)
    res = solve_lp([[1.0, 1.0]], [1.0], ["<="], c, np.zeros(2), [INF, INF])
    assert res.status == "optimal" and list(res.x) == [1.0, 0.0]
    # The same through branch and bound, maximizing.
    model = MilpModel()
    for name in ("a", "b"):
        model.add_variable(MilpVariable(name, "binary", 0.0, 1.0))
    model.add_constraint(make_constraint("one", [(1, "a"), (1, "b")], "<=", 1))
    model.set_objective({"a": -c[0], "b": -c[1]})
    assert solve_model(model).assignment == {"a": 1, "b": 0}


def test_rows_whose_violations_differ_by_an_ulp_tie_to_the_lower_basic_column():
    # Both rows are violated at the slack start, the second by an ulp more.
    # The dual phase repairs the first with x0 = 1, which leaves the second
    # short by an ulp, within the feasibility tolerance; repairing the
    # second first would give x0 = 1 + ulp.
    res = solve_lp([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, np.nextafter(1.0, 2.0)],
                   [">=", ">="], [1.0, 1.0, 1.0], np.zeros(3), [INF, INF, INF])
    assert res.status == "optimal" and list(res.x) == [1.0, 0.0, 0.0]


def test_root_bound_is_the_lp_relaxation_of_every_row():
    res = solve_model(_knapsack_model())
    # x1 and x2 fill 9 of the capacity of 10, and a third of x3 the rest.
    assert res.root_bound == pytest.approx(16.0 + 4.0 / 3.0, abs=1e-9)
    assert np.isnan(solve_model(_knapsack_model(), SolverConfig(node_limit=0)).root_bound)
    # On a provisioning model, the root LP of the rows kept has the optimum
    # of HiGHS over all rows.
    model = _provisioning_model((("type1", 30),), "SP-B")
    res = solve_model(model)
    _, A, b, relations, c, lower, upper, _ = solver_module._to_arrays(model)
    relaxed = _highs_max(A, b, relations, c, lower, upper, integral=False)
    assert res.root_bound == pytest.approx(relaxed, rel=1e-9)
    assert res.root_bound >= res.objective


def test_lp_rows_are_the_rows_the_bounds_leave_open(lp_shapes):
    model = _provisioning_model((("type1", 30),), "SP-B")
    res = solve_model(model)
    assert 0 < res.lp_rows < len(model.constraints)
    # Every LP of the search has the kept rows and every column.
    assert set(lp_shapes) == {(res.lp_rows, len(model.variables))}
    # Each row left out holds over the whole box, in exact arithmetic.
    _, A, b, relations, _, lower, upper, _ = solver_module._to_arrays(model)
    kept = solver_module._binding_rows(A, b, relations, lower, upper)
    assert len(kept) == res.lp_rows
    bounds = {name: (Fraction(var.lower), Fraction(var.upper))
              for name, var in model.variables.items()}
    for i, row in enumerate(model.constraints):
        products = [(Fraction(float(coeff)) * lo, Fraction(float(coeff)) * hi)
                    for coeff, name in row.terms for lo, hi in [bounds[name]]]
        least = sum(min(p) for p in products)
        greatest = sum(max(p) for p in products)
        rhs = Fraction(float(row.rhs))
        holds = {"<=": greatest <= rhs, ">=": least >= rhs,
                 "=": least == greatest == rhs}[row.relation]
        assert holds == (i not in kept), row.name


# ---------------------------------------------------------------------------
# LP text format and external solutions
# ---------------------------------------------------------------------------


def _mixed_model():
    model = MilpModel()
    model.add_variable(MilpVariable("kN_a", "nonneg_integer", 0.0, 7.0))
    model.add_variable(MilpVariable("kN_b", "nonneg_integer", 0.0, 4.0))
    model.add_variable(MilpVariable("d_s", "binary", 0.0, 1.0))
    model.add_constraint(
        make_constraint("dem", [(0.5, "kN_a"), (0.25, "kN_b"), (-2, "d_s")], ">=", 0)
    )
    model.add_constraint(make_constraint("cap", [(1, "kN_a"), (1, "kN_b")], "<=", 9))
    model.add_constraint(make_constraint("tie", [(1, "kN_a"), (-1, "kN_b")], "=", 1))
    model.set_objective({"d_s": 10.0, "kN_a": -1.0, "kN_b": -0.5})
    return model


def test_lp_round_trip_preserves_solution():
    model = _mixed_model()
    text = export_lp(model)
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and "End" in text
    parsed = parse_lp(text)
    assert set(parsed.variables) == set(model.variables)
    for name, var in model.variables.items():
        assert parsed.variables[name].kind == var.kind
        assert parsed.variables[name].lower == var.lower
        assert parsed.variables[name].upper == var.upper
    assert len(parsed.constraints) == len(model.constraints)
    ours = solve_model(model)
    theirs = solve_model(parsed)
    assert ours.status == theirs.status == "optimal"
    assert ours.objective == pytest.approx(theirs.objective, abs=1e-9)


def test_lp_round_trip_is_idempotent():
    # One parse/export pass normalizes ordering; after that it is a fixpoint.
    normalized = export_lp(parse_lp(export_lp(_mixed_model())))
    assert export_lp(parse_lp(normalized)) == normalized


def test_parse_lp_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lp("junk before any section\nMaximize\n obj: x\nEnd")
    with pytest.raises(ValueError):
        parse_lp("Maximize\n obj: x\nSubject To\n r1: x + y\nEnd")  # no relation


def test_import_solution_validates():
    model = _mixed_model()
    res = solve_model(model)
    score = import_solution(model, res.assignment)
    assert score == pytest.approx(res.objective, abs=1e-9)
    with pytest.raises(ValueError):
        import_solution(model, {**res.assignment, "kN_a": 99})  # bound violation
    with pytest.raises(ValueError):
        import_solution(model, {**res.assignment, "kN_a": 1.5})  # not integral
    missing = dict(res.assignment)
    missing.pop("d_s")
    with pytest.raises(ValueError):
        import_solution(model, missing)
    infeasible = {name: 0 for name in model.variables}
    infeasible["kN_a"] = 0
    with pytest.raises(ValueError):
        import_solution(model, infeasible)  # violates the equality row
