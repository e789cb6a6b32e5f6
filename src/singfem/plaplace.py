"""Trace-constrained p-Laplace minimization.

Minimizes the regularized p-Dirichlet energy
sum_T area_T * (|grad u|_T^2 + eps^2)^(p/2) over nodal fields with
prescribed values on a constraint vertex set, by Armijo-damped Newton
steps on that energy (its Hessian is SPD for every p > 1 and eps > 0),
warm-started from the p = 2 solution and driven by continuation in p at
a fixed eps, followed by one final stage at the target eps.  Given the
minimizer on the parent of a refined mesh, the solve instead starts from
its prolongation and runs the final stage alone (nested iteration).
The warm start and every Newton system go through the package's one
free-block solver, laplace._FreeBlockSolver.  Also provides the
normalized duality map, the first-order stationarity measure, and a
randomized minimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# Not called here, like conjugate_gradient below: perfbench/tracer.py
# patches both names in this module.
from scipy.sparse.linalg import splu  # noqa: F401

from . import fem
from .laplace import _FreeBlockSolver
from .laplace import conjugate_gradient  # noqa: F401


class PLaplaceError(RuntimeError):
    """Minimization failed; carries the best iterate found."""

    def __init__(self, message, best_field=None, stationarity=None):
        super().__init__(message)
        self.best_field = best_field
        self.stationarity = stationarity


def sharp_p(beta, p):
    """Normalized duality map (|beta|^(p-2) / ||beta||_{L^p}^(p-2)) beta.

    Elements with zero magnitude map to zero; p = 2 is the identity.
    Preserves the norm crosswise: ||sharp_p(beta)||_{L^p'} equals
    ||beta||_{L^p} for the conjugate exponent p'.
    """
    if not 1.0 < p < float("inf"):
        raise ValueError(f"sharp_p requires p in (1, inf), got {p}")
    if p == 2.0:
        return fem.VectorField(beta.mesh, beta.values.copy())
    norm = fem.lp_norm(beta, p)
    if norm == 0.0:
        return fem.VectorField(beta.mesh, np.zeros_like(beta.values))
    mag = np.hypot(beta.values[:, 0], beta.values[:, 1])
    coef = np.zeros(len(mag))
    nz = mag > 0.0
    coef[nz] = (mag[nz] / norm) ** (p - 2.0)
    return fem.VectorField(beta.mesh, coef[:, None] * beta.values)


def p_energy(u, p):
    """||grad u||_{L^p}, exact for P1 fields.  Bit for bit it is the
    eps = 0 energy of _energy_terms to the power 1 / p: fem.lp_norm takes
    the magnitude the same way."""
    return fem.lp_norm(fem.gradient(u), p)


@dataclass(eq=False)
class PlapProblem:
    """Trace-constrained minimization of the p-Dirichlet energy.

    mesh : the triangulation
    constraint_vertices : non-empty vertex set A where u is pinned
    f : ScalarField supplying the pinned values (read on A)
    p : exponent in (1, inf)
    tol : target first-order stationarity of the returned minimizer
    seed : has no effect (the p = 2 warm start is a direct solve); kept
        for interface stability and slated for removal
    """

    mesh: object
    constraint_vertices: frozenset
    f: fem.ScalarField
    p: float
    tol: float = 1e-8
    seed: int | None = None

    def __post_init__(self):
        self.constraint_vertices = frozenset(int(i) for i in self.constraint_vertices)
        if not self.constraint_vertices:
            raise ValueError("constraint vertex set must be non-empty")
        nv = self.mesh.num_vertices
        for i in self.constraint_vertices:
            if not 0 <= i < nv:
                raise ValueError(f"constraint vertex {i} out of range")
        if not 1.0 < self.p < float("inf"):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.f.mesh is not self.mesh:
            raise fem.FieldError("constraint data lives on a different mesh")


def _grad_values(mesh, G, values):
    """The element gradients, (nt, 2), of nodal values through G, the
    mesh's fem.gradient_operator: fem.gradient's values, bit for bit."""
    return (G @ values).reshape(mesh.num_triangles, 2)


def _energy_terms(mesh, G, values, p, eps):
    """(energy, g, m): the regularized energy sum_T area_T m^(p/2) with
    the element gradients g = grad u (through G, see _grad_values) and
    m = |g|^2 + eps^2."""
    g = _grad_values(mesh, G, values)
    m = g[:, 0] ** 2 + g[:, 1] ** 2 + eps * eps
    return float(np.sum(mesh.areas * m ** (p / 2.0))), g, m


def _energy_gradient(mesh, G, values, p, eps, terms=None):
    """One pass over the elements at the iterate.  Returns (energy, w, s,
    g, m): _energy_terms, the weights w = m^((p-2)/2) and
    s_i = <w grad u, grad hat_i>, the energy gradient over p.  terms,
    when given, is _energy_terms of the iterate, which is then not
    recomputed.  w and s are None for a zero or non-finite energy."""
    energy, g, m = _energy_terms(mesh, G, values, p, eps) if terms is None else terms
    if energy == 0.0 or not math.isfinite(energy):
        return energy, None, None, g, m
    with np.errstate(divide="ignore"):
        w = m ** ((p - 2.0) / 2.0)
    # For p < 2, w is inf where grad u = 0 (possible only at eps = 0), but
    # w grad u -> 0 there for every p > 1.
    w[m == 0.0] = 0.0
    return energy, w, fem.grad_test_vector(mesh, w[:, None] * g), g, m


def _stationarity(energy, s, p, free_mask, hat_norms):
    """max_i |<sharp_p grad u, grad hat_i>| / ||grad hat_i||_{L^p} over
    hats vanishing on the constraint set, from the output of
    _energy_gradient (eps = 0 gives the exact measure)."""
    normp = energy ** (1.0 / p)
    if normp == 0.0:
        return 0.0
    ratios = np.abs(s[free_mask] / normp ** (p - 2.0)) / hat_norms[free_mask]
    return float(ratios.max(initial=0.0))


def _hat_norms_or_none(mesh, p):
    """fem.hat_gradient_p_norms, or None when some norm over- or
    underflows double precision (p too large for the mesh)."""
    with np.errstate(over="ignore"):
        hat_norms = fem.hat_gradient_p_norms(mesh, p)
    if not (np.all(np.isfinite(hat_norms)) and np.all(hat_norms > 0.0)):
        return None
    return hat_norms


def p_stationarity(u, p, constraint_vertices):
    """First-order optimality residual of u for the p-Dirichlet energy
    under constraints on the given vertices.  Raises ValueError when the
    hat-gradient norms or the energy of u overflow double precision."""
    mesh = u.mesh
    free_mask = np.ones(mesh.num_vertices, dtype=bool)
    free_mask[np.asarray(sorted(constraint_vertices), dtype=np.int64)] = False
    hat_norms = _hat_norms_or_none(mesh, p)
    if hat_norms is None:
        raise ValueError(f"hat-gradient L^{p:g} norms overflow double precision")
    G = fem.gradient_operator(mesh)
    return _exact_stationarity(mesh, G, u.values, p, free_mask, hat_norms)[0]


def _exact_stationarity(mesh, G, values, p, free_mask, hat_norms):
    """(stationarity, energy) of the field at eps = 0, the energy being
    sum_T area_T |grad u|^p.  Raises ValueError when it overflows."""
    with np.errstate(over="ignore"):
        energy, _, s, _, _ = _energy_gradient(mesh, G, values, p, 0.0)
    if not math.isfinite(energy):
        raise ValueError(f"the {p:g}-energy overflows double precision")
    return _stationarity(energy, s, p, free_mask, hat_norms), energy


def _solve(solve, mesh, values):
    """x of solve() -> (x, iterations); PLaplaceError carrying values if it fails."""
    try:
        return solve()[0]
    except RuntimeError as exc:  # SolverError, or SuperLU's singular root
        raise PLaplaceError(f"Newton system could not be solved: {exc}",
                            best_field=fem.ScalarField(mesh, values)) from exc


def _newton_step(mesh, values, p, w, s, g, m, free, solver):
    """Solve H_ff delta = -s_f with H the Hessian over p of the regularized
    energy, from the output of _energy_gradient (see _solve).
    Per element H is area_T grad l_i . A grad l_j with the tensor
    A = w (I + (p - 2) g g^T / m), whose eigenvalues w and
    w (1 + (p - 2) |g|^2 / m) >= (p - 1) w are positive for every p > 1.
    A non-finite Hessian raises PLaplaceError carrying the iterate."""
    wmax = float(w.max())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = (p - 2.0) * w / m
    c[m == 0.0] = 0.0  # where w = 0 too (see _energy_gradient)
    if not (math.isfinite(wmax) and np.all(np.isfinite(c))):
        raise PLaplaceError("Newton Hessian is not finite",
                            best_field=fem.ScalarField(mesh, values))
    # Tiny relative floor on the isotropic part keeps the Hessian
    # factorable where the gradient degenerates; the step stays a descent
    # direction because the floored matrix is still SPD.
    entries = fem._element_entries(mesh, solver.gram, w + 1e-14 * wmax, g, c)
    return _solve(lambda: solver.system(entries)(-s[free]), mesh, values)


# The continuation schedule of solve_p_laplace: p grows by at most the
# factor _P_STEP per rung at eps = _EPS_START_FACTOR times the 2-energy
# of the warm start, one Newton step per rung, then one final stage of
# at most _MAX_INNER steps runs at _EPS_FINAL_FACTOR times that energy.
_P_STEP = 1.5
_EPS_START_FACTOR = 1e-2
_EPS_FINAL_FACTOR = 1e-8
_MAX_INNER = 120
# Relative residual of a system that takes MG-PCG (see _FreeBlockSolver).
_NEWTON_RTOL = 1e-12


def _newton_stage(mesh, G, values, p, eps, free, free_mask, solver, hat_norms, tol,
                  max_steps):
    """Run damped Newton at fixed (p, eps) until the stationarity is at
    most tol or max_steps steps are taken.  Returns (values, iters, stat,
    line_search_ok), stat being that of the returned values.  Each step
    makes one pass over the elements for the energy gradient and solves
    the Hessian system (see _newton_step).  The element terms of an
    iterate, its gradients taken through G, are computed once: at the
    stage's entry, or by the line search that accepts it."""
    with np.errstate(over="ignore"):
        terms = _energy_terms(mesh, G, values, p, eps)
    energy = terms[0]
    if not math.isfinite(energy):
        raise PLaplaceError(
            f"regularized {p:g}-energy overflows double precision",
            best_field=fem.ScalarField(mesh, values),
        )
    for it in range(max_steps + 1):
        _, w, s, g, m = _energy_gradient(mesh, G, values, p, eps, terms)
        stat = _stationarity(energy, s, p, free_mask, hat_norms)
        if stat <= tol or it == max_steps:
            return values, it, stat, True

        delta = _newton_step(mesh, values, p, w, s, g, m, free, solver)
        slope = p * float(s[free] @ delta)

        # Near the minimizer the full Newton step gains about half its
        # predicted linear decrease, so a constant just below 1/2 accepts
        # it there; farther out, where the energy is far from quadratic,
        # the same test backtracks the overshooting full step.
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            trial = values.copy()
            trial[free] += t * delta
            terms = _energy_terms(mesh, G, trial, p, eps)
            e_trial = terms[0]
            if e_trial <= energy + 0.45 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # No measurable descent left at machine precision.
            return values, it + 1, stat, False
        if e_trial > energy * (1.0 + 1e-12) + 1e-300:
            raise PLaplaceError(
                f"regularized energy increased on an accepted step "
                f"({energy!r} -> {e_trial!r})",
                best_field=None,
            )
        values, energy = trial, e_trial


def _continuation_ladder(start, target, factor):
    out = [start]
    cur = start
    while cur != target:
        cur = min(cur * factor, target) if target > start else max(cur / factor, target)
        out.append(cur)
    return out


def solve_p_laplace(problem, coarse=None):
    """Minimize the trace-constrained p-Dirichlet energy.

    Returns (ScalarField, OptimalityReport).  The solve is warm-started
    at p = 2, continues multiplicatively in p (rungs of at most a factor
    _P_STEP) at eps0 with one damped Newton step per rung, then runs one
    final stage at (p, eps_final) to the problem tolerance, eps_final
    being _EPS_FINAL_FACTOR times scale, the 2-energy of the start; the
    trace records each stage, named "p_ladder" or "final", with the
    stationarity, at the stage's own (p, eps), of the iterate it hands
    over.  A rung whose line search rejects its step hands over its
    start.  Given `coarse`, the minimizer on problem.mesh.parent, the
    solve starts instead from mesh.prolongation @ coarse.values on the
    free vertices (the constraint values stay f's) and runs the final
    stage alone; scale, which sets eps_final, is then the 2-energy of
    that prolonged start, and the trace's "warm_start" entry carries
    "source": "parent".  A `coarse` on any other mesh, or with a
    non-finite value, raises ValueError.  The regularized energy never
    increases along accepted steps.  One laplace._FreeBlockSolver serves
    the warm start and every Newton system.  If the final stationarity misses
    the problem tolerance, the hat-gradient norms or an energy overflow
    double precision, or a Newton system cannot be solved, a
    PLaplaceError carrying the best iterate is raised.
    """
    mesh = problem.mesh
    if coarse is not None:
        if coarse.mesh is not mesh.parent:
            raise ValueError("coarse must be a field on the problem mesh's parent")
        if not np.all(np.isfinite(coarse.values)):
            raise ValueError("coarse values must be finite")
    fixed = np.asarray(sorted(problem.constraint_vertices), dtype=np.int64)
    free_mask = np.ones(mesh.num_vertices, dtype=bool)
    free_mask[fixed] = False
    free = np.nonzero(free_mask)[0]

    values = problem.f.values.copy()
    trace_log = []

    if len(free) == 0:
        u = fem.ScalarField(mesh, values)
        return u, OptimalityReport(
            energy=p_energy(u, problem.p),
            stationarity=0.0,
            iterations=[],
            certificate=None,
        )

    solver = _FreeBlockSolver(mesh, free, _NEWTON_RTOL)
    if coarse is not None:
        values[free] = (mesh.prolongation @ coarse.values)[free]
        trace_log.append({"stage": "warm_start", "source": "parent", "iterations": 0})
    else:
        # p = 2 warm start: K_ff u_f = -K_fc u_c, the Hessian system at
        # p = 2 (unit weights, no (p - 2) term).
        values = _solve(lambda: solver.constrained(values), mesh, values)
        trace_log.append({"stage": "warm_start", "p": 2.0, "iterations": 0})
    del solver.K  # freed before the Newton systems, which it would outlive

    G = fem.gradient_operator(mesh)
    scale = _energy_terms(mesh, G, values, 2.0, 0.0)[0] ** 0.5  # p_energy, to the bit
    if scale == 0.0:
        scale = 1.0
    eps0 = _EPS_START_FACTOR * scale
    eps_final = _EPS_FINAL_FACTOR * scale

    def hat_norms_at(p):
        hat_norms = _hat_norms_or_none(mesh, p)
        if hat_norms is None:
            raise PLaplaceError(
                f"hat-gradient L^{p:g} norms overflow double precision; "
                f"p is too large for this mesh",
                best_field=fem.ScalarField(mesh, values),
            )
        return hat_norms

    hat_norms = hat_norms_at(problem.p)
    ladder = [] if coarse is not None else _continuation_ladder(2.0, problem.p, _P_STEP)[1:]
    # A rung's iterate only starts the next rung, so each rung takes one
    # corrector step and is held to no tolerance (predictor-corrector
    # continuation); the final stage alone runs to the problem's.
    schedule = [(pk, eps0, -math.inf, 1, "p_ladder") for pk in ladder]
    schedule.append((problem.p, eps_final, problem.tol, _MAX_INNER, "final"))
    for pk, eps, tol, max_steps, name in schedule:
        hn = hat_norms if pk == problem.p else hat_norms_at(pk)
        values, iters, stat, ok = _newton_stage(
            mesh, G, values, pk, eps, free, free_mask, solver, hn, tol, max_steps)
        trace_log.append({"stage": name, "p": pk, "eps": eps, "iterations": iters,
                          "stationarity": stat, "line_search_ok": ok})

    u = fem.ScalarField(mesh, values)
    # The exact measure of p_stationarity, on the hat norms already held;
    # its energy gives p_energy(u, p) to the bit.
    stat_true, energy = _exact_stationarity(mesh, G, values, problem.p, free_mask, hat_norms)
    if not stat_true <= problem.tol:
        raise PLaplaceError(
            f"p-Laplace solve reached stationarity {stat_true:.3e} "
            f"> tolerance {problem.tol:.1e} within the iteration caps",
            best_field=u,
            stationarity=stat_true,
        )
    report = OptimalityReport(
        energy=energy ** (1.0 / problem.p),
        stationarity=stat_true,
        iterations=trace_log,
        certificate=None,
    )
    return u, report


@dataclass(eq=False)
class OptimalityReport:
    """Outcome of a minimization or a certificate run.

    energy : the (non-negative) p-Dirichlet energy of the field
    stationarity : first-order residual, or None for certificate-only runs
    iterations : per-stage trace of the continuation/Newton loop
    certificate : dict with keys passed/worst_margin/trials/violations,
        or None when no certificate was run
    """

    energy: float
    stationarity: float | None = None
    iterations: list = field(default_factory=list)
    certificate: dict | None = None

    def __post_init__(self):
        if not self.energy >= 0.0:
            raise ValueError(f"energy must be non-negative, got {self.energy!r}")


def _margin(areas, gu, gd, p, t, e0):
    """The perturbation margin p_energy(u + t * delta) - e0, e0 being
    p_energy(u); exactly zero for the zero direction.  gu = (gux, guy)
    and gd are the x and y components of the gradients of u and delta:
    the P1 gradient is linear, so grad(u + t delta) = grad u + t grad
    delta, and fem.lp_norm's steps follow."""
    x = t * gd[0]
    x += gu[0]
    y = t * gd[1]
    y += gu[1]
    return fem._vector_lp_norm(x, y, areas, p) - e0


_CERTIFICATE_STEPS = (1e-3, 1e-2)  # perturbation sizes, relative to the energy
_CERTIFICATE_MARGIN_TOL = 1e-10


def minimality_certificate(u, p, constraint_vertices, trials=40, seed=0):
    """Randomized local-minimality check.

    Draws `trials` random nodal directions vanishing on the constraint
    set, normalized to unit p-energy, and verifies
    p_energy(u) <= p_energy(u + t * delta) + 1e-10 * scale
    for steps t in {+-1e-3, +-1e-2} * scale, with scale = p_energy(u)
    floored at u's round-off level sqrt(eps) max|u| (1 for u = 0): the
    energy of a minimizer constant up to round-off is itself round-off, and
    below the margins' own.  Returns an OptimalityReport whose certificate
    records the worst margin and any violations.  The gradients of u and
    of each direction are taken once, through one fem.gradient_operator,
    and split into contiguous x and y components (see _margin).
    """
    mesh = u.mesh
    fixed = np.asarray(sorted(constraint_vertices), dtype=np.int64)
    rng = np.random.default_rng(seed)
    G = fem.gradient_operator(mesh)
    gu = np.ascontiguousarray(_grad_values(mesh, G, u.values).T)
    e0 = fem._vector_lp_norm(gu[0], gu[1], mesh.areas, p)
    scale = max(e0, math.sqrt(np.finfo(np.float64).eps) * float(np.abs(u.values).max())) or 1.0

    worst = float("inf")
    violations = 0
    for _ in range(trials):
        direction = rng.standard_normal(mesh.num_vertices)
        direction[fixed] = 0.0
        gd = np.ascontiguousarray(_grad_values(mesh, G, direction).T)
        dnorm = fem._vector_lp_norm(gd[0], gd[1], mesh.areas, p)
        if dnorm == 0.0:
            continue
        gd /= dnorm
        for step in _CERTIFICATE_STEPS:
            for t in (step * scale, -step * scale):
                margin = _margin(mesh.areas, gu, gd, p, t, e0)
                worst = min(worst, margin)
                if margin < -_CERTIFICATE_MARGIN_TOL * scale:
                    violations += 1

    cert = {
        "passed": violations == 0,
        "worst_margin": worst if worst != float("inf") else 0.0,
        "trials": trials,
        "violations": violations,
        "steps": list(_CERTIFICATE_STEPS),
    }
    return OptimalityReport(energy=e0, stationarity=None, iterations=[],
                            certificate=cert)
