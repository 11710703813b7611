import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

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
    assert count_inversions == [] and res.factorizations == 0
    # A singular warm basis is inverted once, then the slack start takes over.
    singular = Basis(basic=np.array([0, 0, 1]), status=res.basis.status)
    warm = solve_lp(A, b, relations, c, lower, upper, basis=singular)
    assert len(count_inversions) == warm.factorizations == 1
    assert warm.objective == pytest.approx(res.objective, abs=1e-9)


def test_siblings_share_one_inversion(count_inversions):
    A, b, relations, c, lower, upper = _mixed_lp()
    parent = solve_lp(A, b, relations, c, lower, upper)
    assert parent.factorizations == 0
    simplex_module._last_factor = None
    children = [(lower, np.array([2.0, INF, INF])), (np.array([3.0, 0.0, 0.0]), upper)]
    results = [solve_lp(A, b, relations, c, lo, hi, basis=parent.basis) for lo, hi in children]
    assert [r.factorizations for r in results] == [1, 0]
    assert len(count_inversions) == 1
    for (lo, hi), res in zip(children, results):
        simplex_module._last_factor = None
        fresh = solve_lp(A, b, relations, c, lo, hi, basis=parent.basis)
        assert fresh.factorizations == 1
        _assert_same_lp_result(res, fresh)


def _mixed_lp():
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 2.0], [2.0, 1.0, -1.0]])
    b = np.array([8.0, 1.0, 6.0])
    relations = ["<=", ">=", "<="]
    c = np.array([-2.0, -1.0, -3.0])
    return A, b, relations, c, np.zeros(3), np.full(3, INF)


def _assert_same_lp_result(ours, reference):
    assert ours.status == reference.status
    assert ours.iterations == reference.iterations
    assert ours.objective == reference.objective or (
        np.isnan(ours.objective) and np.isnan(reference.objective))
    if reference.x is None:
        assert ours.x is None
        return
    assert np.array_equal(ours.x, reference.x)
    assert np.array_equal(ours.basis.basic, reference.basis.basic)
    assert np.array_equal(ours.basis.status, reference.basis.status)


@pytest.mark.parametrize("change", ["matrix", "relations"])
def test_a_basis_reused_on_another_lp_is_factorized_again(change):
    # One Basis object on two LPs of the same shape: the second solve must
    # not start from the first one's factorization.
    A, b, relations, c, lower, upper = _mixed_lp()
    basis = solve_lp(A, b, relations, c, lower, upper).basis
    assert sorted(basis.basic) != [3, 4, 5]  # not the slack basis
    other_A, other_relations = A.copy(), list(relations)
    if change == "matrix":
        other_A[0, basis.basic[basis.basic < 3][0]] = 3.0
    else:
        other_relations[2] = ">="
    lp = (A, b, relations, c, lower, upper)
    other = (other_A, b, other_relations, c, lower, upper)
    for first, second in ((lp, other), (other, lp)):
        simplex_module._last_factor = None
        solve_lp(*first, basis=basis)
        res = solve_lp(*second, basis=basis)
        assert res.factorizations == 1
        simplex_module._last_factor = None
        fresh = solve_lp(*second, basis=Basis(basic=basis.basic.copy(),
                                              status=basis.status.copy()))
        _assert_same_lp_result(res, fresh)


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
    # cold, every child starts from its parent's basis.
    assert len({bounds for bounds, _ in calls}) == len(calls)
    assert calls[0][1] is None
    assert all(basis is not None for _, basis in calls[1:])

    calls.clear()
    res = solve_model(make_model(), SolverConfig(node_limit=1))
    assert len(calls) == res.node_count == 1
    assert res.assignment


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


@pytest.mark.parametrize(
    "slices, variant",
    [((("type1", 30),), "SP-B"), ((("type1", 50), ("type2", 200)), "JP")],
    ids=["SP-B", "JP"],
)
def test_reused_factorizations_give_the_same_search(monkeypatch, slices, variant):
    model = _provisioning_model(slices, variant)

    def solve(reuse):
        lps = []

        def recording_solve_lp(*args, **kwargs):
            if not reuse:
                monkeypatch.setattr(simplex_module, "_last_factor", None)
            res = solve_lp(*args, **kwargs)
            lps.append((res.iterations, res.factorizations, kwargs.get("basis") is None))
            return res

        monkeypatch.setattr(solver_module, "solve_lp", recording_solve_lp)
        simplex_module._last_factor = None
        return solve_model(model), lps

    shared, shared_lps = solve(reuse=True)
    alone, alone_lps = solve(reuse=False)
    assert shared.status == alone.status == "optimal"
    assert shared.objective == alone.objective
    assert shared.assignment == alone.assignment
    assert shared.node_count == alone.node_count
    assert [it for it, _, _ in shared_lps] == [it for it, _, _ in alone_lps]
    for res, lps in ((shared, shared_lps), (alone, alone_lps)):
        assert len(lps) == res.node_count
        assert res.iterations == sum(it for it, _, _ in lps)
        assert res.factorizations == sum(f for _, f, _ in lps)
    # Without reuse every warm LP inverts its basis; the root inverts none.
    assert [f for _, f, _ in alone_lps] == [int(not cold) for _, _, cold in alone_lps]
    assert alone_lps[0][1:] == (0, True)
    assert shared.factorizations < alone.factorizations


def test_bnb_node_limit_reports_gap():
    model = _knapsack_model()
    res = solve_model(model, SolverConfig(node_limit=1))
    assert res.status in ("feasible_gap", "optimal")
    if res.status == "feasible_gap":
        assert res.gap > 0.0
    # The all-zero incumbent guarantees an assignment either way.
    assert res.assignment


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
