"""Branch-and-bound MILP solver plus LP-format import/export.

The LP relaxations are handled by the bounded-variable simplex in
``simplex``; integrality is enforced by best-first branch and bound with
most-fractional branching.  Each node solves one LP, by the same simplex
path: the root from the slack basis, and every child, which differs from its
parent in one variable bound, from the parent's optimal basis (a pair of
small integer arrays kept on the heap entry).  The two children of a node
share that basis, so when the second is solved while the simplex still holds
its sibling's factorization, it inverts nothing.  :class:`SolveResult`
reports the nodes (one LP each), simplex iterations and basis inversions of
a solve.  A node is pruned, and a solve is optimal, within a relative gap of
1e-6.  Models can be exported to and re-imported from the widely used CPLEX
LP text format, and externally produced assignments can be validated and
scored with :func:`import_solution`.
"""

from __future__ import annotations

import heapq
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .milp import MilpModel, MilpVariable, make_constraint
from .simplex import solve_lp

_INT_TOL = 1e-6
# Relative optimality gap at which a node is pruned and a solve is optimal.
_GAP_TOLERANCE = 1e-6


@dataclass
class SolverConfig:
    time_limit: float | None = None  # seconds
    node_limit: int | None = None


@dataclass
class SolveResult:
    status: str  # "optimal" | "feasible_gap" | "infeasible" | "timeout"
    objective: float = float("nan")
    assignment: dict = field(default_factory=dict)  # name -> int value
    gap: float = float("inf")
    node_count: int = 0  # branch-and-bound nodes, each of which solves one LP
    wall_time: float = 0.0
    iterations: int = 0  # simplex iterations over all LPs
    factorizations: int = 0  # basis inversions over all LPs


def _to_arrays(model: MilpModel):
    names = list(model.variables)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    m = len(model.constraints)
    A = np.zeros((m, n))
    b = np.zeros(m)
    relations = []
    for i, row in enumerate(model.constraints):
        for coeff, var in row.terms:
            A[i, index[var]] += float(coeff)
        b[i] = float(row.rhs)
        relations.append(row.relation)
    lower = np.array([model.variables[v].lower for v in names])
    upper = np.array([model.variables[v].upper for v in names])
    binary = np.array([model.variables[v].kind == "binary" for v in names])
    c = np.zeros(n)
    for var, coeff in model.objective.items():
        c[index[var]] = float(coeff)
    return names, A, b, relations, c, lower, upper, binary


def _feasible(A, b, relations, x, tol=1e-6):
    lhs = A @ x
    for value, rhs, rel in zip(lhs, b, relations):
        if rel == "<=" and value > rhs + tol:
            return False
        if rel == ">=" and value < rhs - tol:
            return False
        if rel == "=" and abs(value - rhs) > tol:
            return False
    return True


def _round_heuristic(A, b, relations, c, lower, upper, x):
    """Round the relaxation point up to integers and test feasibility."""
    cand = np.ceil(x - _INT_TOL)
    cand = np.clip(cand, lower, upper)
    if _feasible(A, b, relations, cand):
        return cand
    cand = np.round(x)
    cand = np.clip(cand, lower, upper)
    if _feasible(A, b, relations, cand):
        return cand
    return None


def solve_model(model: MilpModel, config: SolverConfig | None = None,
                warm_start: dict | None = None) -> SolveResult:
    """Maximize the model objective over integer assignments.

    ``warm_start`` optionally provides a feasible assignment used as the
    initial incumbent (it is validated first and ignored if infeasible).
    """
    config = config or SolverConfig()
    start = time.monotonic()
    names, A, b, relations, c, lower, upper, binary = _to_arrays(model)
    n = len(names)
    # Simplex minimizes; negate the (maximize) objective.
    c_min = -c

    incumbent = None
    incumbent_obj = -math.inf
    # The all-zero plan (reject every slice) is feasible by construction for
    # provisioning models; fall back to it whenever it checks out.
    zero = np.zeros(n)
    if np.all(lower <= 1e-12) and _feasible(A, b, relations, zero):
        incumbent = zero
        incumbent_obj = 0.0
    if warm_start is not None:
        x0 = np.array([float(warm_start.get(name, 0.0)) for name in names])
        if (
            np.all(x0 >= lower - _INT_TOL)
            and np.all(x0 <= upper + _INT_TOL)
            and _feasible(A, b, relations, x0)
        ):
            obj0 = float(c @ x0)
            if obj0 > incumbent_obj:
                incumbent, incumbent_obj = x0, obj0

    def out_of_time():
        return config.time_limit is not None and time.monotonic() - start > config.time_limit

    counter = 0
    node_count = 0
    iterations = factorizations = 0
    best_bound = math.inf
    heap = []

    def push(bound, depth, lo, hi, basis):
        nonlocal counter
        heapq.heappush(heap, (-bound, -depth, counter, lo, hi, basis))
        counter += 1

    # The root is the first node popped; it has no parent basis, so its LP
    # starts from the slack basis.  Every child re-solves from its parent's
    # optimal basis.
    push(math.inf, 0, lower, upper, None)

    hit_limit = False
    while heap:
        if out_of_time() or (config.node_limit is not None and node_count >= config.node_limit):
            hit_limit = True
            break
        neg_bound, neg_depth, _, lo, hi, parent_basis = heapq.heappop(heap)
        bound = -neg_bound
        depth = -neg_depth
        tol_abs = _GAP_TOLERANCE * max(1.0, abs(incumbent_obj))
        if bound <= incumbent_obj + tol_abs:
            continue
        res = solve_lp(A, b, relations, c_min, lo, hi, basis=parent_basis)
        node_count += 1
        iterations += res.iterations
        factorizations += res.factorizations
        if res.status != "optimal":
            continue
        bound = -res.objective
        if bound <= incumbent_obj + tol_abs:
            continue
        x = res.x
        frac = np.abs(x - np.round(x))
        fractional = np.where(frac > _INT_TOL)[0]
        if fractional.size == 0:
            x_int = np.round(x)
            obj = float(c @ x_int)
            if obj > incumbent_obj:
                incumbent, incumbent_obj = x_int, obj
            continue
        rounded = _round_heuristic(A, b, relations, c, lo, hi, x)
        if rounded is not None:
            obj = float(c @ rounded)
            if obj > incumbent_obj:
                incumbent, incumbent_obj = rounded, obj
        # Branch on fixed-charge / acceptance binaries before instance
        # counts: they decide the combinatorial structure, and weighting by
        # the objective coefficient targets the binary whose fractional
        # fixed cost keeps the relaxation bound loose.
        score = np.minimum(frac, 1 - frac)
        frac_bin = fractional[binary[fractional]]
        if frac_bin.size:
            j = frac_bin[np.argmax(score[frac_bin] * (1.0 + np.abs(c[frac_bin])))]
        else:
            j = fractional[np.argmax(score[fractional])]
        floor_v = math.floor(x[j])
        children = []
        hi_child = hi.copy()
        hi_child[j] = floor_v
        if hi_child[j] >= lo[j]:
            children.append((lo, hi_child))
        lo_child = lo.copy()
        lo_child[j] = floor_v + 1
        if lo_child[j] <= hi[j]:
            children.append((lo_child, hi))
        if x[j] - floor_v >= 0.5:
            children.reverse()  # explore the rounding direction first
        for lo_c, hi_c in children:
            push(bound, depth + 1, lo_c, hi_c, res.basis)

    if heap:
        best_bound = max(-item[0] for item in heap)
    else:
        best_bound = incumbent_obj

    wall = time.monotonic() - start
    counts = dict(node_count=node_count, wall_time=wall, iterations=iterations,
                  factorizations=factorizations)
    if incumbent is None:
        status = "timeout" if hit_limit else "infeasible"
        return SolveResult(status=status, **counts)
    gap = max(0.0, best_bound - incumbent_obj) / max(1.0, abs(incumbent_obj))
    if not heap and not hit_limit:
        status = "optimal"
        gap = 0.0
    elif gap <= _GAP_TOLERANCE:
        status = "optimal"
    elif hit_limit and config.time_limit is not None and wall > config.time_limit:
        status = "timeout"
    else:
        status = "feasible_gap"
    assignment = {name: int(round(v)) for name, v in zip(names, incumbent)}
    return SolveResult(
        status=status,
        objective=float(incumbent_obj),
        assignment=assignment,
        gap=gap,
        **counts,
    )


# ---------------------------------------------------------------------------
# CPLEX LP text format
# ---------------------------------------------------------------------------


def _format_terms(terms):
    parts = []
    for coeff, var in terms:
        value = float(coeff)
        sign = "-" if value < 0 else "+"
        parts.append(f"{sign} {abs(value):.17g} {var}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: MilpModel) -> str:
    """Render the model in CPLEX LP text format (maximize sense)."""
    lines = ["Maximize"]
    obj_terms = [(coeff, var) for var, coeff in model.objective.items() if coeff != 0]
    lines.append(" obj: " + (_format_terms(obj_terms) or "0 " + next(iter(model.variables))))
    lines.append("Subject To")
    for row in model.constraints:
        rel = "=" if row.relation == "=" else row.relation
        lines.append(f" {row.name}: {_format_terms(row.terms)} {rel} {float(row.rhs):.17g}")
    lines.append("Bounds")
    for var in model.variables.values():
        lines.append(f" {var.lower:.17g} <= {var.name} <= {var.upper:.17g}")
    binaries = [v.name for v in model.variables.values() if v.kind == "binary"]
    generals = [v.name for v in model.variables.values() if v.kind == "nonneg_integer"]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"


_SECTION_RE = re.compile(
    r"^(maximize|minimize|subject to|st|s\.t\.|bounds|binaries|binary|generals|general|end)$",
    re.IGNORECASE,
)


def _tokenize_expression(text):
    """Yield (coefficient, variable) pairs from an LP-format linear expression."""
    tokens = re.findall(r"[+-]|[0-9.eE]+(?:[+-][0-9]+)?|[A-Za-z_][A-Za-z0-9_.]*", text)
    terms = []
    sign = 1.0
    coeff = None
    for tok in tokens:
        if tok == "+":
            sign, coeff = 1.0, None
        elif tok == "-":
            sign, coeff = -1.0, None
        elif re.match(r"^[0-9.]", tok):
            coeff = float(tok) if coeff is None else coeff * float(tok)
        else:
            terms.append((sign * (1.0 if coeff is None else coeff), tok))
            sign, coeff = 1.0, None
    return terms


def parse_lp(text: str) -> MilpModel:
    """Parse a CPLEX LP format model produced by :func:`export_lp`.

    Variable kinds come from the Binaries/Generals sections; metadata is not
    representable in the format and is left empty.
    """
    section = None
    objective_chunks = []
    constraint_lines = []
    bounds = {}
    binaries = set()
    generals = set()
    sense = 1.0
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        if _SECTION_RE.match(line):
            section = line.lower()
            if section in ("st", "s.t."):
                section = "subject to"
            if section in ("binary",):
                section = "binaries"
            if section in ("general",):
                section = "generals"
            if section == "minimize":
                sense = -1.0
            continue
        if section in ("maximize", "minimize"):
            objective_chunks.append(line)
        elif section == "subject to":
            constraint_lines.append(line)
        elif section == "bounds":
            m = re.match(
                r"^\s*(-?[0-9.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_.]*)\s*<=\s*(-?[0-9.eE+-]+)\s*$",
                line,
            )
            if not m:
                raise ValueError(f"unsupported bounds line: {raw!r}")
            bounds[m.group(2)] = (float(m.group(1)), float(m.group(3)))
        elif section == "binaries":
            binaries.update(line.split())
        elif section == "generals":
            generals.update(line.split())
        elif section == "end":
            pass
        else:
            raise ValueError(f"content outside any recognized section: {raw!r}")

    objective_text = " ".join(objective_chunks)
    if ":" in objective_text:
        objective_text = objective_text.split(":", 1)[1]
    obj_terms = _tokenize_expression(objective_text)

    # Constraints may wrap across lines; stitch until a relation is present.
    rows = []
    buffer = ""
    for line in constraint_lines:
        buffer = f"{buffer} {line}".strip()
        if re.search(r"(<=|>=|=)\s*-?[0-9.eE+-]+\s*$", buffer):
            rows.append(buffer)
            buffer = ""
    if buffer:
        raise ValueError(f"dangling constraint text: {buffer!r}")

    model = MilpModel()
    seen = set()
    parsed_rows = []
    for row_text in rows:
        name = None
        if ":" in row_text:
            name, row_text = row_text.split(":", 1)
            name = name.strip()
        m = re.search(r"(<=|>=|(?<![<>])=)\s*(-?[0-9.eE+-]+)\s*$", row_text)
        if not m:
            raise ValueError(f"cannot parse constraint: {row_text!r}")
        relation, rhs = m.group(1), float(m.group(2))
        terms = _tokenize_expression(row_text[: m.start()])
        parsed_rows.append((name or f"c{len(parsed_rows)}", terms, relation, rhs))
        seen.update(v for _, v in terms)
    seen.update(v for _, v in obj_terms)
    seen.update(bounds)
    seen.update(binaries)
    seen.update(generals)

    for var_name in sorted(seen):
        lo, hi = bounds.get(var_name, (0.0, 1.0 if var_name in binaries else 0.0))
        kind = "binary" if var_name in binaries else "nonneg_integer"
        model.add_variable(MilpVariable(var_name, kind, lo, hi))
    for name, terms, relation, rhs in parsed_rows:
        model.add_constraint(make_constraint(name, terms, relation, rhs))
    model.set_objective({v: sense * coeff for coeff, v in obj_terms})
    return model


def import_solution(model: MilpModel, assignment: dict, tol: float = 1e-6):
    """Validate an externally produced assignment against the model.

    Checks bounds, integrality and every constraint; returns the
    independently recomputed objective value.  Raises ValueError on any
    violation or missing variable.
    """
    values = {}
    for name, var in model.variables.items():
        if name not in assignment:
            raise ValueError(f"assignment missing variable {name}")
        value = float(assignment[name])
        if abs(value - round(value)) > tol:
            raise ValueError(f"variable {name} not integral: {value}")
        value = float(round(value))
        if value < var.lower - tol or value > var.upper + tol:
            raise ValueError(f"variable {name}={value} outside [{var.lower}, {var.upper}]")
        values[name] = value
    for row in model.constraints:
        lhs = sum(float(coeff) * values[v] for coeff, v in row.terms)
        rhs = float(row.rhs)
        scale = 1.0 + abs(rhs)
        if row.relation == "<=" and lhs > rhs + tol * scale:
            raise ValueError(f"constraint {row.name} violated: {lhs} > {rhs}")
        if row.relation == ">=" and lhs < rhs - tol * scale:
            raise ValueError(f"constraint {row.name} violated: {lhs} < {rhs}")
        if row.relation == "=" and abs(lhs - rhs) > tol * scale:
            raise ValueError(f"constraint {row.name} violated: {lhs} != {rhs}")
    return sum(coeff * values[v] for v, coeff in model.objective.items())
