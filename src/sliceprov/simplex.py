"""Dense bounded-variable simplex, started from a basis.

Solves  minimize c'x  subject to  A x (<=, =, >=) b,  l <= x <= u.

The implementation keeps an explicit tableau (basis-inverse times the
constraint matrix) plus the vector of current basic values, and supports the
standard bounded-variable mechanics: entering variables may move up from
their lower bound or down from their upper bound, and a ratio test can end in
a bound flip instead of a basis exchange.  Dantzig pricing is used until a
run of degenerate pivots (ten per column), after which Bland's rule
guarantees termination.  The pivot tolerance (1e-9) and the primal
feasibility tolerance (1e-7) are module constants.

Each choice by largest score (the entering column, the largest pivot among
the rows that limit the step, the most violated row and the dual entering
column) breaks ties by a stated rule: every candidate within a relative 1e-9
of the best ties (:func:`near_max`), and the lowest column wins, or for a
row the one with the lowest basic column.  Scores that are equal in exact
arithmetic differ by round-off, which depends on the BLAS and its thread
count; with the rule, the choice among them does not.

Every solve builds its tableau from a basis over ``[A | slacks]`` and runs
the same two phases through one pivot loop.  A bounded-variable dual simplex
first drives the basic values into their bounds: a row that no nonbasic
column can repair proves the LP infeasible.  A primal phase 2 then reaches
optimality, or finds a ray along which the LP is unbounded.  Given the
optimal :class:`Basis` of an LP that differs only in its variable bounds (a
branch-and-bound parent), the dual phase starts from that basis, which stays
dual feasible, and phase 2 only removes what round-off left.  Without one
(or when it is singular) the start is the slack basis with every structural
at its lower bound, which is dual feasible once the costs are clipped at
zero; phase 2 then brings back the negative costs.

Each basis is inverted at most once in a row.  The slack basis needs no
inversion: its matrix is a diagonal of +-1, its own inverse.  The inverse of
any other basis and its tableau are kept for the next solve, until another
basis is inverted; a solve from the same basis of the same columns (the
second child of a branch-and-bound node) starts from a copy of them, which
holds the numbers a new inversion would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

_INF = np.inf
# Smallest |pivot| (and step length) treated as nonzero.
_PIVOT_TOL = 1e-9
# Largest bound violation of a basic value accepted as feasible.
_FEAS_TOL = 1e-7

# Largest deviation of B^-1 B from the identity accepted for a warm-start
# basis; a worse factorization falls back to the slack basis.
_FACTOR_TOL = 1e-9
# Relative distance from the largest score within which two candidates tie.
_TIE_TOL = 1e-9


def near_max(values):
    """Mask of the entries within a relative 1e-9 of the largest.  Values
    that are equal in exact arithmetic may differ by round-off, which
    depends on the BLAS and its thread count; a choice among them by
    index is the same everywhere."""
    best = values.max()
    return values >= best - _TIE_TOL * abs(best)


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the columns ``[A | slacks]``.

    ``basic[i]`` is the column basic in row i; ``status`` holds AT_LOWER,
    AT_UPPER or BASIC for every column (n structural, then one slack per
    row).
    """

    basic: np.ndarray
    status: np.ndarray


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = np.nan
    x: np.ndarray | None = None  # structural variables only
    iterations: int = 0
    basis: Basis | None = None  # final basis of an optimal solve
    factorizations: int = 0  # basis inversions made by this solve (0 or 1)


@dataclass(frozen=True)
class _Factor:
    """The inverse of the basis matrix ``A[:, basic]`` and the tableau
    ``inv @ A`` with its basic columns set to the identity.  Never written
    to: a tableau pivots on a copy."""

    A: np.ndarray  # the columns [A | slacks] it was computed from
    basic: np.ndarray
    inv: np.ndarray
    T: np.ndarray


# The factorization of the basis inverted last, or None.  It is replaced
# whole, so a solve on another thread can only miss it, never see half of it.
_last_factor = None


def _factor(A, basic):
    """The :class:`_Factor` of ``basic`` over the columns ``A`` (None when the
    basis matrix is singular or too ill-conditioned), and whether it took a
    new inversion.  The last one is reused when its ``A`` and ``basic`` equal
    these.  ``A`` holds the slack signs, so other row relations miss it,
    except "=" against "<=", which differ only in the slack's bounds."""
    global _last_factor
    last = _last_factor
    if (
        last is not None
        and np.array_equal(last.basic, basic)
        and np.array_equal(last.A, A)
    ):
        return last, False
    try:
        inv = np.linalg.inv(A[:, basic])
    except np.linalg.LinAlgError:
        return None, True
    T = inv @ A
    identity = np.eye(len(basic))
    if not np.all(np.isfinite(T)) or (
        len(basic) and np.abs(T[:, basic] - identity).max() > _FACTOR_TOL
    ):
        return None, True
    T[:, basic] = identity
    _last_factor = _Factor(A, basic.copy(), inv, T)
    return _last_factor, True


class _Tableau:
    def __init__(self, T, basis, status, xB, lower, upper):
        self.m = T.shape[0]
        self.T = T
        self.basis = basis
        self.status = status
        self.xB = xB
        self.lower = lower
        self.upper = upper
        self.degenerate_limit = 10 * T.shape[1]
        self.iteration_limit = 2000 * (self.m + T.shape[1])
        self.iterations = 0

    @classmethod
    def from_factor(cls, factor, b, status, lower, upper):
        """Tableau of the factorized basis with the nonbasic ``status`` of a
        :class:`Basis`, and basic values recomputed from ``lower``/``upper``."""
        status = np.array(status, dtype=np.int8)
        status[factor.basic] = BASIC
        tab = cls(factor.T.copy(), factor.basic.copy(), status, None, lower, upper)
        tab.xB = factor.inv @ (b - factor.A @ tab.nonbasic_values())
        return tab

    @classmethod
    def slack(cls, A, b, sign, lower, upper):
        """Tableau of the slack basis, every structural at its lower bound.
        The basis matrix is ``diag(sign)``, its own inverse."""
        m, n_full = A.shape
        n = n_full - m
        T = A * sign[:, None]
        T[:, n:] = np.eye(m)
        status = np.repeat(np.int8([AT_LOWER, BASIC]), [n, m])
        tab = cls(T, np.arange(n, n_full), status, None, lower, upper)
        tab.xB = sign * (b - A @ tab.nonbasic_values())
        return tab

    def nonbasic_values(self):
        vals = np.where(self.status == AT_UPPER, self.upper, self.lower)
        vals[~np.isfinite(vals)] = 0.0
        vals[self.status == BASIC] = 0.0
        return vals

    def solution(self):
        x = self.nonbasic_values()
        x[self.basis] = self.xB
        return x

    def _price(self, c):
        y = c[self.basis] @ self.T
        rc = c - y
        rc[self.basis] = 0.0
        return rc

    def _choose_entering(self, rc, bland):
        tol = 1e-9
        movable = self.upper - self.lower > 0
        down = (self.status == AT_UPPER) & (rc > tol) & movable
        up = (self.status == AT_LOWER) & (rc < -tol) & movable
        candidates = np.where(down | up)[0]
        if candidates.size == 0:
            return None, 0
        if bland:
            j = candidates[0]
        else:
            j = candidates[np.argmax(near_max(np.abs(rc[candidates])))]
        direction = 1 if self.status[j] == AT_LOWER else -1
        return int(j), direction

    def _ratio_test(self, j, direction, bland):
        # Moving x_j by +t*direction changes basics by -t*direction*d.
        d = self.T[:, j] * direction
        t_max = self.upper[j] - self.lower[j]  # bound-flip distance
        lower_b = self.lower[self.basis]
        upper_b = self.upper[self.basis]
        ratios = np.full(self.m, np.inf)
        pos = d > _PIVOT_TOL
        ratios[pos] = (self.xB[pos] - lower_b[pos]) / d[pos]
        neg = (d < -_PIVOT_TOL) & np.isfinite(upper_b)
        ratios[neg] = (upper_b[neg] - self.xB[neg]) / (-d[neg])
        i_min = int(np.argmin(ratios)) if self.m else -1
        t_min = ratios[i_min] if i_min >= 0 else np.inf
        if t_min >= t_max:
            return t_max, -1, d
        # Among rows within tolerance of the minimum ratio, pick the largest
        # |pivot| for stability, ties to the smallest basis index (which
        # Bland's rule takes outright).
        close = np.where(ratios <= t_min + 1e-12)[0]
        if not bland:
            close = close[near_max(np.abs(d[close]))]
        limit_row = int(close[np.argmin(self.basis[close])])
        return max(t_min, 0.0), limit_row, d

    def _pivot(self, row, j, entering_value):
        """Exchange the basic column of ``row`` for column ``j``, whose new
        value is ``entering_value``; the leaving status is set by the caller."""
        pivot = self.T[row, j]
        self.T[row] /= pivot
        col = self.T[:, j].copy()
        col[row] = 0.0
        # Tableau columns stay sparse: update only the rows the pivot touches.
        rows = np.flatnonzero(col)
        self.T[rows] -= col[rows, None] * self.T[row]
        self.basis[row] = j
        self.status[j] = BASIC
        self.xB[row] = entering_value

    def primal_step(self, c, bland):
        """One primal simplex iteration: price, then pivot or flip the
        entering column.  Every pricing counts as an iteration."""
        self.iterations += 1
        rc = self._price(c)
        j, direction = self._choose_entering(rc, bland)
        if j is None:
            return "optimal"
        t, row, d = self._ratio_test(j, direction, bland)
        if not np.isfinite(t):
            return "unbounded"
        self.xB -= t * d
        if row < 0:
            # Bound flip: the entering variable traverses its whole range.
            self.status[j] = AT_UPPER if direction > 0 else AT_LOWER
            return "flip" if t > _PIVOT_TOL else "degenerate"
        leaving = self.basis[row]
        entering_value = (self.lower[j] if direction > 0 else self.upper[j]) + direction * t
        # d is already direction-adjusted: basics move by -t*d, so a positive
        # component means the leaving variable dropped to its lower bound.
        if d[row] > 0:
            self.status[leaving] = AT_LOWER
        else:
            self.status[leaving] = AT_UPPER
        self._pivot(row, j, entering_value)
        return "pivot" if t > _PIVOT_TOL else "degenerate"

    def dual_step(self, c, bland):
        """One dual simplex pivot: the most violated basic leaves at the bound
        it violates, and the entering column is the one whose reduced cost
        reaches zero first along that row (dual ratio test).  Only a pivot
        counts as an iteration."""
        lower_b = self.lower[self.basis]
        upper_b = self.upper[self.basis]
        below = lower_b - self.xB
        violation = np.maximum(below, self.xB - upper_b)
        rows = np.where(violation > _FEAS_TOL)[0]
        if rows.size == 0:
            return "feasible"
        if not bland:
            rows = rows[near_max(violation[rows])]
        row = int(rows[np.argmin(self.basis[rows])])
        to_lower = below[row] > 0
        # x_B[row] moves by -alpha_j * delta_j when nonbasic x_j moves by
        # delta_j (positive from its lower bound, negative from its upper);
        # a column is eligible when its move pushes x_B[row] back in bounds.
        alpha = self.T[row]
        direction = np.where(self.status == AT_UPPER, -1.0, 1.0)
        push = alpha * direction * (-1.0 if to_lower else 1.0)
        eligible = np.where(
            (self.status != BASIC)
            & (self.upper - self.lower > 0)
            & (push > _PIVOT_TOL)
        )[0]
        if eligible.size == 0:
            return "infeasible"
        self.iterations += 1
        rc = c[eligible] - c[self.basis] @ self.T[:, eligible]
        # Dual feasibility makes rc * direction >= 0; clip round-off.
        ratios = np.maximum(rc * direction[eligible], 0.0) / push[eligible]
        t = ratios.min()
        close = eligible[ratios <= t + 1e-12]
        if not bland:
            close = close[near_max(np.abs(alpha[close]))]
        j = int(close[0])
        target = lower_b[row] if to_lower else upper_b[row]
        delta = (self.xB[row] - target) / alpha[j]
        start_value = self.upper[j] if self.status[j] == AT_UPPER else self.lower[j]
        if not np.isfinite(start_value):
            start_value = 0.0
        self.xB -= delta * self.T[:, j]
        self.status[self.basis[row]] = AT_LOWER if to_lower else AT_UPPER
        self._pivot(row, j, start_value + delta)
        return "pivot" if t > _PIVOT_TOL else "degenerate"

    def run(self, step, c):
        """Take ``step(c, bland)`` until it returns an outcome other than a
        pivot, a flip or a degenerate step, and return that outcome.  Bland's
        rule takes over for good after a run of degenerate steps."""
        degenerate_run = 0
        bland = False
        while self.iterations < self.iteration_limit:
            outcome = step(c, bland)
            if outcome == "degenerate":
                degenerate_run += 1
                bland = bland or degenerate_run >= self.degenerate_limit
            elif outcome in ("pivot", "flip"):
                degenerate_run = 0
            else:
                return outcome
        raise RuntimeError(f"simplex iteration limit exceeded in {step.__name__}")


def solve_lp(
    A,
    b,
    relations,
    c,
    lower,
    upper,
    basis: Basis | None = None,
):
    """Minimize c'x subject to row relations and variable bounds.

    ``relations`` is a sequence of "<=", "=", ">=" per row.  Rows are
    normalized to equalities by adding slack columns with the appropriate
    bounds.  Lower bounds must be finite.  ``basis`` may give the
    :class:`Basis` of an optimal solve of the same rows and objective under
    other bounds; the LP is then re-solved by the dual simplex from that
    basis.  Without one, or when it is singular, the solve starts from the
    slack basis with every structural at its lower bound.  An optimal result
    carries its final basis.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, not of shape {A.shape}")
    m, n = A.shape
    if len(relations) != m:
        raise ValueError(f"{len(relations)} relations for {m} rows")
    b = _vector("b", b, m)
    c = _vector("c", c, n)
    lower = _vector("lower", lower, n)
    upper = _vector("upper", upper, n)
    if not np.all(np.isfinite(lower)):
        raise ValueError("lower bounds must be finite")
    slack_sign = np.ones(m)
    slack_upper = np.full(m, _INF)
    for i, rel in enumerate(relations):
        if rel == ">=":
            slack_sign[i] = -1.0
        elif rel == "=":
            slack_upper[i] = 0.0
        elif rel != "<=":
            raise ValueError(f"unknown relation {rel!r}")
    A_full = np.hstack([A, np.diag(slack_sign)])
    lower_full = np.concatenate([lower, np.zeros(m)])
    upper_full = np.concatenate([upper, slack_upper])
    n_full = n + m
    c_full = np.concatenate([c, np.zeros(m)])

    tab = None
    factorizations = 0
    dual_costs = c_full
    if basis is not None:
        basic = np.array(basis.basic)
        if basic.shape != (m,) or np.shape(basis.status) != (n_full,):
            raise ValueError("starting basis does not match the LP dimensions")
        factor, fresh = _factor(A_full, basic)
        factorizations = int(fresh)
        if factor is not None:
            tab = _Tableau.from_factor(factor, b, basis.status, lower_full, upper_full)
    if tab is None:
        # Every structural at its lower bound: dual feasible for the costs
        # clipped at zero.
        tab = _Tableau.slack(A_full, b, slack_sign, lower_full, upper_full)
        dual_costs = np.maximum(c_full, 0.0)
    if tab.run(tab.dual_step, dual_costs) == "infeasible":
        return LpResult(status="infeasible", iterations=tab.iterations,
                        factorizations=factorizations)

    if tab.run(tab.primal_step, c_full) == "unbounded":
        return LpResult(status="unbounded", iterations=tab.iterations,
                        factorizations=factorizations)
    x = tab.solution()
    return LpResult(
        status="optimal",
        objective=float(c @ x[:n]),
        x=x[:n].copy(),
        iterations=tab.iterations,
        basis=Basis(basic=tab.basis.copy(), status=tab.status.copy()),
        factorizations=factorizations,
    )


def _vector(name, value, size):
    vector = np.asarray(value, dtype=float)
    if vector.shape != (size,):
        raise ValueError(f"{name} has shape {vector.shape}, expected ({size},)")
    return vector
