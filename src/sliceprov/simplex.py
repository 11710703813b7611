"""Dense bounded-variable simplex, started from a basis.

Solves  minimize c'x  subject to  A x (<=, =, >=) b,  l <= x <= u.

The implementation keeps an explicit tableau (basis-inverse times the
constraint matrix), the row of reduced costs and the vector of current basic
values, and supports the standard bounded-variable mechanics: entering
variables may move up from their lower bound or down from their upper bound,
and a ratio test can end in a bound flip instead of a basis exchange.
Dantzig pricing is used until a run of degenerate pivots (ten per column),
after which Bland's rule guarantees termination.  The pivot tolerance (1e-9)
and the primal feasibility tolerance (1e-7) are module constants.

Each choice by largest score (the entering column, the largest pivot among
the rows that limit the step, the most violated row and the dual entering
column) breaks ties by a stated rule: every candidate within a relative 1e-9
of the best ties (:func:`near_max`), and the lowest column wins, or for a
row the one with the lowest basic column.  Scores that are equal in exact
arithmetic differ by round-off, which depends on the BLAS and its thread
count; with the rule, the choice among them does not.

Every solve runs the same two phases through one pivot loop.  A
bounded-variable dual simplex first drives the basic values into their
bounds: a row that no nonbasic column can repair proves the LP infeasible.
A primal phase 2 then reaches optimality, or finds a ray along which the LP
is unbounded.  Each phase prices the reduced costs once, at its start, and
every pivot then updates them with the pivot row, as it updates the tableau.

An LP starts in one of three ways:

- continued: given the :class:`Basis` of an optimal solve of the same rows
  and objective under other bounds (a branch-and-bound parent) that still
  carries its final tableau, the solve copies that tableau and the basic
  values, and the dual phase starts at once.  The basis stays dual
  feasible.  The basic values move only where a nonbasic bound moved, and
  nothing is inverted;
- inverted: given a basis without its tableau, the basis matrix over
  ``[A | slacks]`` is inverted once with LAPACK and the tableau rebuilt;
- cold: without a basis (or when it is singular) the start is the slack
  basis with every structural at its lower bound.  Its matrix is a diagonal
  of +-1, its own inverse, and it is dual feasible once the costs are
  clipped at zero; phase 2 then brings back the negative costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

_INF = np.inf
# Smallest |pivot| (and step length) treated as nonzero.
_PIVOT_TOL = 1e-9
# Largest bound violation of a basic value accepted as feasible.
_FEAS_TOL = 1e-7

# Largest deviation of B^-1 B from the identity accepted for an inverted
# basis; a worse one falls back to the slack basis.
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
class FinalTableau:
    """The tableau ``B^-1 [A | slacks]`` an optimal solve ended with, and its
    solution ``x`` over every column.  Never written to: a solve that
    continues from it pivots on a copy."""

    T: np.ndarray
    x: np.ndarray

    @property
    def nbytes(self):
        return self.T.nbytes + self.x.nbytes


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the columns ``[A | slacks]``.

    ``basic[i]`` is the column basic in row i; ``status`` holds AT_LOWER,
    AT_UPPER or BASIC for every column (n structural, then one slack per
    row).  ``tableau`` is the final tableau of the optimal solve that ended
    in this basis, or None (a basis given by hand, or one whose tableau was
    dropped).
    """

    basic: np.ndarray
    status: np.ndarray
    tableau: FinalTableau | None = field(default=None, repr=False, compare=False)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = np.nan
    x: np.ndarray | None = None  # structural variables only
    iterations: int = 0
    basis: Basis | None = None  # final basis of an optimal solve, with its tableau
    factorizations: int = 0  # basis inversions made by this solve (0 or 1)
    start: str = "cold"  # "cold" | "continued" | "inverted"


class _Tableau:
    def __init__(self, T, basis, status, xB, lower, upper):
        self.m = T.shape[0]
        self.T = T
        self.basis = basis
        self.status = status
        self.xB = xB
        self.lower = lower
        self.upper = upper
        self.rc = None  # reduced costs of the phase's costs, set by price()
        self.degenerate_limit = 10 * T.shape[1]
        self.iteration_limit = 2000 * (self.m + T.shape[1])
        self.iterations = 0

    @classmethod
    def continued(cls, final, basic, status, lower, upper):
        """Copy of a final tableau under the bounds ``lower``/``upper``.  The
        basic values move only by the change of the nonbasic values."""
        tab = cls(final.T.copy(), basic, np.array(status, dtype=np.int8), None, lower, upper)
        delta = tab.nonbasic_values() - final.x
        delta[tab.basis] = 0.0
        moved = np.flatnonzero(delta)
        tab.xB = final.x[tab.basis] - tab.T[:, moved] @ delta[moved]
        return tab

    @classmethod
    def inverted(cls, A, b, basic, status, lower, upper):
        """Tableau of ``basic`` over the columns ``A`` by one inversion of
        its basis matrix, with the nonbasic ``status`` of a :class:`Basis`.
        None when the basis matrix is singular or too ill-conditioned."""
        try:
            inv = np.linalg.inv(A[:, basic])
        except np.linalg.LinAlgError:
            return None
        T = inv @ A
        identity = np.eye(len(basic))
        if not np.all(np.isfinite(T)) or (
            len(basic) and np.abs(T[:, basic] - identity).max() > _FACTOR_TOL
        ):
            return None
        T[:, basic] = identity
        status = np.array(status, dtype=np.int8)
        status[basic] = BASIC
        tab = cls(T, basic, status, None, lower, upper)
        tab.xB = inv @ (b - A @ tab.nonbasic_values())
        return tab

    @classmethod
    def slack(cls, A, b, sign, lower, upper):
        """Tableau of the slack basis of the structural columns ``A``, every
        structural at its lower bound.  The basis matrix is ``diag(sign)``,
        its own inverse."""
        m, n = A.shape
        T = np.hstack([A * sign[:, None], np.eye(m)])
        status = np.repeat(np.int8([AT_LOWER, BASIC]), [n, m])
        tab = cls(T, np.arange(n, n + m), status, None, lower, upper)
        tab.xB = sign * (b - A @ tab.nonbasic_values()[:n])
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

    def price(self, c):
        """Reduced costs of ``c`` for the current basis; every pivot keeps
        them up to date."""
        self.rc = c - c[self.basis] @ self.T
        self.rc[self.basis] = 0.0

    def _choose_entering(self, bland):
        tol = 1e-9
        rc = self.rc
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
        # T[row, j] is exactly 1, so rc[j] becomes exactly 0.
        self.rc -= self.rc[j] * self.T[row]
        self.basis[row] = j
        self.status[j] = BASIC
        self.xB[row] = entering_value

    def primal_step(self, bland):
        """One primal simplex iteration: choose the entering column by its
        reduced cost, then pivot or flip it.  Every choice counts as an
        iteration."""
        self.iterations += 1
        j, direction = self._choose_entering(bland)
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

    def dual_step(self, bland):
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
        # Dual feasibility makes rc * direction >= 0; clip round-off.
        ratios = np.maximum(self.rc[eligible] * direction[eligible], 0.0) / push[eligible]
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
        """Price ``c``, then take ``step(bland)`` until it returns an outcome
        other than a pivot, a flip or a degenerate step, and return that
        outcome.  Bland's rule takes over for good after a run of degenerate
        steps."""
        self.price(c)
        degenerate_run = 0
        bland = False
        while self.iterations < self.iteration_limit:
            outcome = step(bland)
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
    :class:`Basis` of an optimal solve of the same ``A``, ``b``,
    ``relations`` and ``c`` under other bounds; the LP is then re-solved by
    the dual simplex from that basis, continuing from its final tableau when
    it still carries one and inverting its basis matrix when not.  Without
    one, or when it is singular, the solve starts from the slack basis with
    every structural at its lower bound.  An optimal result carries its
    final basis and tableau; ``start`` says how the solve began.
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
    lower_full = np.concatenate([lower, np.zeros(m)])
    upper_full = np.concatenate([upper, slack_upper])
    n_full = n + m
    c_full = np.concatenate([c, np.zeros(m)])

    tab = None
    factorizations = 0
    dual_costs = c_full
    if basis is not None:
        basic = np.array(basis.basic)  # a copy: the tableau pivots on it
        if basic.shape != (m,) or np.shape(basis.status) != (n_full,):
            raise ValueError("starting basis does not match the LP dimensions")
        if basis.tableau is not None:
            if basis.tableau.T.shape != (m, n_full):
                raise ValueError("starting tableau does not match the LP dimensions")
            tab = _Tableau.continued(basis.tableau, basic, basis.status,
                                     lower_full, upper_full)
            start = "continued"
        else:
            factorizations = 1
            tab = _Tableau.inverted(np.hstack([A, np.diag(slack_sign)]), b, basic,
                                    basis.status, lower_full, upper_full)
            start = "inverted"
    if tab is None:
        # Every structural at its lower bound: dual feasible for the costs
        # clipped at zero.
        tab = _Tableau.slack(A, b, slack_sign, lower_full, upper_full)
        dual_costs = np.maximum(c_full, 0.0)
        start = "cold"
    if tab.run(tab.dual_step, dual_costs) == "infeasible":
        outcome = "infeasible"
    else:
        outcome = tab.run(tab.primal_step, c_full)  # "optimal" or "unbounded"
    counts = dict(iterations=tab.iterations, factorizations=factorizations, start=start)
    if outcome != "optimal":
        return LpResult(status=outcome, **counts)
    x = tab.solution()
    return LpResult(
        status="optimal",
        objective=float(c @ x[:n]),
        x=x[:n].copy(),
        basis=Basis(basic=tab.basis, status=tab.status, tableau=FinalTableau(tab.T, x)),
        **counts,
    )


def _vector(name, value, size):
    vector = np.asarray(value, dtype=float)
    if vector.shape != (size,):
        raise ValueError(f"{name} has shape {vector.shape}, expected ({size},)")
    return vector
