"""Correctness checks written apart from the program.

Each check returns a list of problem descriptions; an empty list means the
check passed.  None of them calls sliceprov code to compute what it checks:
models are re-solved with HiGHS through ``scipy.optimize.milp``, plans are
recomputed from their placements and the graph, and probabilities come from
this module's own Monte Carlo sampler.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import optimize, sparse
from scipy.stats import norm

RESOURCE_TYPES = ("c", "m", "w")
_FEAS_TOL = 1e-6
# Relative optimality gap of the program's solver, and the one HiGHS is run at.
_GAP_TOL = 1e-6
_HIGHS_GAP = 1e-9

# Monte Carlo draws of every PSP estimate, and how many standard errors below
# the required PSP an estimate may fall before the check fails.
PSP_DRAWS = 200_000
PSP_SIGMAS = 4.0
# Minimality: a margin this many "aggregate standard deviations" lower must
# miss the required PSP.  One step is sqrt(E[k^2]) margin units, which moves
# the box by one standard deviation of the k-user Gaussian at k^2 = E[k^2].
MINIMALITY_STEP = 0.1


class Capture:
    """Records every (model, result) pair passed through ``planner.solve_model``
    while ``active``."""

    def __init__(self, planner_module):
        self.pairs = []
        self.active = False
        self._module = planner_module
        self._inner = planner_module.solve_model

        def capture(model, *args, **kwargs):
            result = self._inner(model, *args, **kwargs)
            if self.active:
                self.pairs.append((model, result))
            return result

        planner_module.solve_model = capture

    def uninstall(self):
        self._module.solve_model = self._inner


# ---------------------------------------------------------------------------
# MILP optimum against HiGHS
# ---------------------------------------------------------------------------


def model_arrays(model):
    """(names, c, A, row_lower, row_upper, lower, upper) of a maximize model."""
    names = list(model.variables)
    index = {name: i for i, name in enumerate(names)}
    rows, cols, vals = [], [], []
    row_lo = np.empty(len(model.constraints))
    row_hi = np.empty(len(model.constraints))
    for r, row in enumerate(model.constraints):
        for coeff, var in row.terms:
            rows.append(r)
            cols.append(index[var])
            vals.append(float(coeff))
        rhs = float(row.rhs)
        row_lo[r] = rhs if row.relation in (">=", "=") else -np.inf
        row_hi[r] = rhs if row.relation in ("<=", "=") else np.inf
    A = sparse.csr_array((vals, (rows, cols)), shape=(len(model.constraints), len(names)))
    c = np.zeros(len(names))
    for var, coeff in model.objective.items():
        c[index[var]] = float(coeff)
    lower = np.array([model.variables[n].lower for n in names], dtype=float)
    upper = np.array([model.variables[n].upper for n in names], dtype=float)
    return names, c, A, row_lo, row_hi, lower, upper


def check_solve(model, result):
    """The program's solve is optimal, its assignment satisfies the model, and
    its objective matches the HiGHS optimum within the solver's gap."""
    problems = []
    if result.status != "optimal":
        return [f"solve status {result.status!r}"]
    names, c, A, row_lo, row_hi, lower, upper = model_arrays(model)
    x = np.array([float(result.assignment.get(n, np.nan)) for n in names])
    if np.any(np.isnan(x)):
        problems.append("assignment misses variables")
        return problems
    lhs = A @ x
    scale = 1.0 + np.abs(np.where(np.isfinite(row_lo), row_lo, row_hi))
    bad = (lhs < row_lo - _FEAS_TOL * scale) | (lhs > row_hi + _FEAS_TOL * scale)
    if np.any(bad):
        problems.append(f"assignment violates {int(bad.sum())} rows")
    if np.any(x < lower - _FEAS_TOL) or np.any(x > upper + _FEAS_TOL):
        problems.append("assignment outside variable bounds")
    own_obj = float(c @ x)
    if abs(own_obj - result.objective) > _FEAS_TOL * max(1.0, abs(own_obj)):
        problems.append(f"reported objective {result.objective} != c.x {own_obj}")
    highs = optimize.milp(
        -c,
        integrality=np.ones(len(names)),
        bounds=optimize.Bounds(lower, upper),
        constraints=optimize.LinearConstraint(A, row_lo, row_hi),
        options={"mip_rel_gap": _HIGHS_GAP},
    )
    if highs.status != 0:
        problems.append(f"HiGHS status {highs.status}: {highs.message}")
        return problems
    best = -float(highs.fun)
    if abs(best - result.objective) > 2 * _GAP_TOL * max(1.0, abs(best)) + 1e-7:
        problems.append(f"objective {result.objective:.6f} != HiGHS optimum {best:.6f}")
    return problems


# ---------------------------------------------------------------------------
# Plans recomputed from their placements
# ---------------------------------------------------------------------------


def margin_box(spec, gamma):
    """Target box mu + gamma * sigma over the per-user statistics."""
    sd = np.sqrt(np.clip(np.diag(spec.user_model.covariance), 0.0, None))
    return spec.user_model.mean + gamma * sd


def provisioned_amounts(spec, slice_plan):
    """Provisioned total of every demand component, in the SFC's order:
    (c, m, w) of each VNF, then the bandwidth of each virtual link."""
    per_vnf = {v.name: 0 for v in spec.sfc.vnfs}
    for (_, vnf), count in slice_plan.node_counts.items():
        per_vnf[vnf] += count
    per_vlink = {(v.src, v.dst): 0 for v in spec.sfc.vlinks}
    for (_, vlink), count in slice_plan.link_counts.items():
        per_vlink[vlink] += count
    amounts = []
    for vnf in spec.sfc.vnfs:
        amounts.extend(per_vnf[vnf.name] * vnf.requirement.get(t) for t in RESOURCE_TYPES)
    for vlink in spec.sfc.vlinks:
        amounts.append(per_vlink[(vlink.src, vlink.dst)] * vlink.bandwidth)
    return np.array(amounts, dtype=float)


def usage(slice_plans):
    """Amounts the given slice plans place on every (node, resource type) and
    on every link."""
    node, link = {}, {}
    for sp in slice_plans:
        vnfs = {v.name: v for v in sp.spec.sfc.vnfs}
        vlinks = {(v.src, v.dst): v for v in sp.spec.sfc.vlinks}
        for (node_id, vnf), count in sp.node_counts.items():
            for rtype in RESOURCE_TYPES:
                key = (node_id, rtype)
                node[key] = node.get(key, 0.0) + count * vnfs[vnf].requirement.get(rtype)
        for (key, vlink), count in sp.link_counts.items():
            link[key] = link.get(key, 0.0) + count * vlinks[vlink].bandwidth
    return node, link


def reserves(graph, background, impact_aware, max_impact):
    """Background reserve mu_B + Phi^-1(1 - p) sigma_B per (node, type) and link."""
    if not impact_aware:
        return {}, {}
    z = float(norm.ppf(1.0 - max_impact))
    node = {}
    for node_id in graph.nodes:
        mu, sd = background.node_mean[node_id], background.node_std[node_id]
        for rtype, m, s in zip(RESOURCE_TYPES, mu.as_tuple(), sd.as_tuple()):
            node[(node_id, rtype)] = m + z * s
    link = {key: background.link_mean[key] + z * background.link_std[key] for key in graph.links}
    return node, link


def _flow_problems(sid, spec, slice_plan, graph):
    """Exact flow conservation: at every node the net outflow of virtual link
    (v, w) equals v's hosted share minus w's hosted share, where a VNF's share
    of a link is its bandwidth over the VNF's total out- (in-) bandwidth."""
    problems = []
    out_bw, in_bw = {}, {}
    for vl in spec.sfc.vlinks:
        out_bw[vl.src] = out_bw.get(vl.src, Fraction(0)) + Fraction(vl.bandwidth)
        in_bw[vl.dst] = in_bw.get(vl.dst, Fraction(0)) + Fraction(vl.bandwidth)
    for vl in spec.sfc.vlinks:
        bw = Fraction(vl.bandwidth)
        net = {node_id: Fraction(0) for node_id in graph.nodes}
        for ((src, dst), vlink), count in slice_plan.link_counts.items():
            if vlink == (vl.src, vl.dst):
                net[src] += count
                net[dst] -= count
        for node_id in graph.nodes:
            hosted_v = slice_plan.node_counts.get((node_id, vl.src), 0)
            hosted_w = slice_plan.node_counts.get((node_id, vl.dst), 0)
            expected = hosted_v * bw / out_bw[vl.src] - hosted_w * bw / in_bw[vl.dst]
            if net[node_id] != expected:
                problems.append(
                    f"{sid}: flow of {vl.src}->{vl.dst} at {node_id}: {net[node_id]} != {expected}"
                )
    return problems


def check_plan(plan, graph, background, impact_aware, max_impact):
    """Demand-box cover, capacity minus reserves, exact flow conservation and
    earnings, all recomputed from the plan's placements."""
    problems = []
    earnings = 0.0
    for sid, sp in plan.slices.items():
        spec = sp.spec
        counts = list(sp.node_counts.values()) + list(sp.link_counts.values())
        if any(int(c) != c or c < 0 for c in counts):
            problems.append(f"{sid}: counts must be nonnegative integers")
        if not sp.accepted:
            if any(counts) or sp.used_nodes:
                problems.append(f"{sid}: rejected slice holds placements")
            continue
        box = margin_box(spec, sp.gamma)
        if not np.allclose(box, sp.box.upper, rtol=1e-12, atol=1e-12):
            problems.append(f"{sid}: plan box differs from mu + gamma * sigma")
        amounts = provisioned_amounts(spec, sp)
        short = amounts < box - 1e-9 * (1.0 + np.abs(box))
        if np.any(short):
            problems.append(f"{sid}: components {np.flatnonzero(short).tolist()} below the box")
        for (node_id, _), count in sp.node_counts.items():
            if count and node_id not in sp.used_nodes:
                problems.append(f"{sid}: instances on {node_id} without its fixed cost")
        node_amounts, link_amounts = usage([sp])
        cost = sum(
            amount * graph.nodes[node_id].unit_cost.get(rtype)
            for (node_id, rtype), amount in node_amounts.items()
        )
        cost += sum(amount * graph.links[key].unit_cost for key, amount in link_amounts.items())
        cost += sum(graph.nodes[node_id].fixed_cost for node_id in sp.used_nodes)
        if abs(cost - sp.cost) > 1e-6 * max(1.0, cost):
            problems.append(f"{sid}: cost {sp.cost} != recomputed {cost}")
        earnings += spec.income - cost
        problems.extend(_flow_problems(sid, spec, sp, graph))
    used, link_used = usage(sp for sp in plan.slices.values() if sp.accepted)
    node_res, link_res = reserves(graph, background, impact_aware, max_impact)
    for node_id, node in graph.nodes.items():
        for rtype, cap in zip(RESOURCE_TYPES, node.capacity.as_tuple()):
            limit = max(0.0, cap - node_res.get((node_id, rtype), 0.0))
            if used.get((node_id, rtype), 0.0) > limit + _FEAS_TOL:
                problems.append(f"node {node_id}/{rtype}: {used[(node_id, rtype)]} > {limit}")
    for key, link in graph.links.items():
        limit = max(0.0, link.bandwidth - link_res.get(key, 0.0))
        if link_used.get(key, 0.0) > limit + _FEAS_TOL:
            problems.append(f"link {key}: {link_used[key]} > {limit}")
    if abs(earnings - plan.earnings) > 1e-6 * max(1.0, abs(earnings)):
        problems.append(f"earnings {plan.earnings} != recomputed {earnings}")
    return problems


def check_joint_dominates(joint_earnings, sequential_earnings, label):
    if joint_earnings < sequential_earnings - 1e-6 * max(1.0, abs(sequential_earnings)):
        return [f"{label}: joint earnings {joint_earnings} < sequential {sequential_earnings}"]
    return []


# ---------------------------------------------------------------------------
# Probability of successful provisioning by an own sampler
# ---------------------------------------------------------------------------


def sample_demand(spec, rng, draws):
    """Aggregate demand draws: k from the user-count pmf, then
    Normal(k mu, k^2 Sigma), the k = 0 draw being the zero vector."""
    probs = spec.user_count.probs
    k = rng.choice(probs.size, size=draws, p=probs).astype(float)
    mu = spec.user_model.mean
    cov = spec.user_model.covariance
    stochastic = np.flatnonzero(np.diag(cov) > 0.0)
    draws_out = k[:, None] * mu[None, :]
    if stochastic.size:
        root = np.linalg.cholesky(cov[np.ix_(stochastic, stochastic)])
        z = rng.standard_normal((draws, stochastic.size))
        draws_out[:, stochastic] += k[:, None] * (z @ root.T)
    return draws_out


def psp_estimate(spec, upper, rng, draws=PSP_DRAWS):
    """(estimate, standard error) of Pr{demand <= upper}."""
    x = sample_demand(spec, rng, draws)
    p = float(np.mean(np.all(x <= upper[None, :] + 1e-9, axis=1)))
    return p, float(np.sqrt(max(p * (1.0 - p), 1e-12) / draws))


def _minimality_step(spec):
    k = np.arange(spec.user_count.probs.size, dtype=float)
    return MINIMALITY_STEP * float(np.sqrt(spec.user_count.probs @ k**2))


def check_psp(spec, upper, rng, label):
    """The box reaches the required PSP within PSP_SIGMAS standard errors."""
    p, se = psp_estimate(spec, upper, rng)
    if p < spec.required_psp - PSP_SIGMAS * se:
        return [f"{label}: PSP {p:.5f} +- {se:.5f} below required {spec.required_psp}"]
    return []


def check_margin(spec, gamma, rng):
    """The calibrated margin reaches the required PSP, and a margin one
    minimality step lower does not."""
    problems = check_psp(spec, margin_box(spec, gamma), rng, f"{spec.id} at gamma {gamma:.4f}")
    lower = gamma - _minimality_step(spec)
    if lower >= 0.0:
        p, se = psp_estimate(spec, margin_box(spec, lower), rng)
        if p >= spec.required_psp:
            problems.append(
                f"{spec.id}: gamma {gamma:.4f} not minimal, PSP {p:.5f} +- {se:.5f} "
                f"at {lower:.4f} still reaches {spec.required_psp}"
            )
    return problems


def _overrun_probability(headroom, mu, sigma):
    """Pr{max(0, Normal(mu, sigma)) > headroom}."""
    if headroom < 0.0:
        return 1.0
    if sigma == 0.0:
        return 1.0 if mu > headroom + 1e-12 else 0.0
    return float(norm.sf((headroom - mu) / sigma))


def check_verification(plan, report, graph, background, trials, rng):
    """The frequencies reported by ``verify_by_simulation`` agree with this
    module's sampler (PSP) and with the closed-form overrun probability of a
    clamped Gaussian background load (impact)."""
    problems = []
    accepted = {sid for sid, sp in plan.slices.items() if sp.accepted}
    if set(report["psp"]) != accepted:
        problems.append("verification does not cover exactly the accepted slices")
    for sid, (freq, _) in report["psp"].items():
        sp = plan.slices[sid]
        p, se = psp_estimate(sp.spec, provisioned_amounts(sp.spec, sp), rng)
        tol = 5.0 * np.hypot(se, np.sqrt(max(p * (1.0 - p), 1e-12) / trials))
        if abs(freq - p) > tol:
            problems.append(f"{sid}: verified PSP {freq:.5f} vs own {p:.5f}")
    node_used, link_used = usage(sp for sp in plan.slices.values() if sp.accepted)
    expected = {}
    for node_id, node in graph.nodes.items():
        mus = background.node_mean[node_id].as_tuple()
        sds = background.node_std[node_id].as_tuple()
        for i, rtype in enumerate(RESOURCE_TYPES):
            headroom = node.capacity.as_tuple()[i] - node_used.get((node_id, rtype), 0.0)
            expected[(node_id, rtype)] = _overrun_probability(headroom, mus[i], sds[i])
    for key, link in graph.links.items():
        headroom = link.bandwidth - link_used.get(key, 0.0)
        expected[key] = _overrun_probability(
            headroom, background.link_mean[key], background.link_std[key]
        )
    if set(report["impact"]) != set(expected):
        problems.append("verification does not cover every node resource and link")
        return problems
    for key, (freq, _) in report["impact"].items():
        p = expected[key]
        if abs(freq - p) > 5.0 * np.sqrt(max(p * (1.0 - p), 1e-12) / trials) + 1e-4:
            problems.append(f"impact at {key}: verified {freq:.5f} vs closed form {p:.5f}")
    return problems
