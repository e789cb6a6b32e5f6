"""Trace-constrained p-Laplace minimization.

Minimizes the regularized p-Dirichlet energy
sum_T area_T * (|grad u|_T^2 + eps^2)^(p/2) over nodal fields with
prescribed values on a constraint vertex set, by iteratively
reweighted least squares with Armijo-damped steps, warm-started from
the p = 2 solution and driven by continuation in both p and eps.
Also provides the normalized duality map, the first-order stationarity
measure, and a randomized minimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from . import fem
from .laplace import conjugate_gradient


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
    """||grad u||_{L^p}, exact for P1 fields."""
    return fem.lp_norm(fem.gradient(u), p)


@dataclass(eq=False)
class PlapProblem:
    """Trace-constrained minimization of the p-Dirichlet energy.

    mesh : the triangulation
    constraint_vertices : non-empty vertex set A where u is pinned
    f : ScalarField supplying the pinned values (read on A)
    p : exponent in (1, inf)
    eps_final : final regularization, or None for 1e-8 * scale where
        scale is the 2-energy of the p = 2 warm start
    tol : target first-order stationarity of the returned minimizer
    seed : seeds the warm start's CG initial iterate
    """

    mesh: object
    constraint_vertices: frozenset
    f: fem.ScalarField
    p: float
    eps_final: float | None = None
    tol: float = 1e-8
    p_step: float = 1.5
    eps_start_factor: float = 1e-2
    eps_div: float = 10.0
    max_inner: int = 120
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
        if self.eps_final is not None and self.eps_final < 0.0:
            raise ValueError("eps_final must be >= 0")
        if not 1.0 < self.p_step <= 1.5:
            raise ValueError("continuation step factor must lie in (1, 1.5]")


def _grad_values(mesh, values):
    return np.einsum("tid,ti->td", mesh.grad_lambda, values[mesh.triangles])


def _reg_energy(mesh, values, p, eps):
    g = _grad_values(mesh, values)
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2
    return float(np.sum(mesh.areas * (mag2 + eps * eps) ** (p / 2.0)))


def _stationarity(mesh, values, p, eps, free_mask, hat_norms):
    """max_i |<sharp_p grad u, grad hat_i>| / ||grad hat_i||_{L^p} over
    hats vanishing on the constraint set, with eps-regularized
    magnitudes (eps = 0 reproduces the exact measure)."""
    g = _grad_values(mesh, values)
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2 + eps * eps
    normp = float(np.sum(mesh.areas * mag2 ** (p / 2.0))) ** (1.0 / p)
    if normp == 0.0:
        return 0.0
    w = mag2 ** ((p - 2.0) / 2.0)
    s = fem.grad_test_vector(mesh, w[:, None] * g) / normp ** (p - 2.0)
    ratios = np.abs(s[free_mask]) / hat_norms[free_mask]
    return float(ratios.max(initial=0.0))


def p_stationarity(u, p, constraint_vertices):
    """First-order optimality residual of u for the p-Dirichlet energy
    under constraints on the given vertices."""
    mesh = u.mesh
    free_mask = np.ones(mesh.num_vertices, dtype=bool)
    free_mask[np.asarray(sorted(constraint_vertices), dtype=np.int64)] = False
    hat_norms = fem.hat_gradient_p_norms(mesh, p)
    return _stationarity(mesh, u.values, p, 0.0, free_mask, hat_norms)


def _irls_stage(mesh, values, p, eps, free, free_mask, hat_norms, tol, max_iter):
    """Run damped IRLS at fixed (p, eps).  Returns (values, iters, stat,
    line_search_ok)."""
    energy = _reg_energy(mesh, values, p, eps)
    for it in range(max_iter):
        g = _grad_values(mesh, values)
        mag2 = g[:, 0] ** 2 + g[:, 1] ** 2 + eps * eps
        stat = _stationarity(mesh, values, p, eps, free_mask, hat_norms)
        if stat <= tol:
            return values, it, stat, True

        w = mag2 ** ((p - 2.0) / 2.0)
        s = fem.grad_test_vector(mesh, w[:, None] * g)  # energy gradient / p
        # Tiny relative floor keeps the reweighted matrix factorable
        # where the gradient degenerates; the step stays a descent
        # direction because the floored matrix is still SPD.
        K = fem.stiffness_matrix(mesh, w + 1e-14 * float(w.max()))
        K_ff = K.tocsc()[free][:, free]
        delta = splu(K_ff.tocsc()).solve(-s[free])
        slope = p * float(s[free] @ delta)

        # A demanding sufficient-decrease constant matters here: for
        # p > 2 the undamped reweighted step overshoots along elements
        # whose gradients align, and a weak Armijo test would accept
        # that oscillatory full step (it still descends, but with
        # contraction factor close to 1).  Requiring nearly half the
        # predicted decrease backtracks onto the relaxed step instead.
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            trial = values.copy()
            trial[free] += t * delta
            e_trial = _reg_energy(mesh, trial, p, eps)
            if e_trial <= energy + 0.45 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # No measurable descent left at machine precision.
            stat = _stationarity(mesh, values, p, eps, free_mask, hat_norms)
            return values, it + 1, stat, False
        if e_trial > energy * (1.0 + 1e-12) + 1e-300:
            raise PLaplaceError(
                f"regularized energy increased on an accepted step "
                f"({energy!r} -> {e_trial!r})",
                best_field=None,
            )
        values, energy = trial, e_trial
    stat = _stationarity(mesh, values, p, eps, free_mask, hat_norms)
    return values, max_iter, stat, True


def _continuation_ladder(start, target, factor):
    out = [start]
    cur = start
    while cur != target:
        cur = min(cur * factor, target) if target > start else max(cur / factor, target)
        out.append(cur)
    return out


def solve_p_laplace(problem):
    """Minimize the trace-constrained p-Dirichlet energy.

    Returns (ScalarField, OptimalityReport).  The solve is warm-started
    at p = 2, continues multiplicatively in p (steps bounded by the
    problem's step factor), then drives the regularization down a
    decade at a time to eps_final.  The regularized energy never
    increases along accepted steps.  If the final stationarity misses
    the problem tolerance a PLaplaceError carrying the best iterate is
    raised.
    """
    mesh = problem.mesh
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

    # p = 2 warm start (a plain linear solve).
    K = fem.stiffness_matrix(mesh)
    Kc = K.tocsc()
    rhs = -(Kc[free][:, fixed] @ values[fixed])
    if problem.seed is None:
        x0 = None
    else:
        rng = np.random.default_rng(problem.seed)
        x0 = rng.standard_normal(len(free))
    values[free], warm_iters = conjugate_gradient(
        Kc[free][:, free].tocsr(), rhs, x0=x0, rtol=1e-12, maxiter=20 * len(free)
    )
    trace_log.append({"stage": "warm_start", "p": 2.0, "iterations": warm_iters})

    u2 = fem.ScalarField(mesh, values.copy())
    scale = p_energy(u2, 2)
    if scale == 0.0:
        scale = 1.0
    eps0 = problem.eps_start_factor * scale
    eps_final = problem.eps_final if problem.eps_final is not None else 1e-8 * scale

    hat_norms = fem.hat_gradient_p_norms(mesh, problem.p)
    stage_tol = max(problem.tol, 1e-6)

    if problem.p != 2.0:
        for pk in _continuation_ladder(2.0, problem.p, problem.p_step)[1:]:
            hn = fem.hat_gradient_p_norms(mesh, pk)
            values, iters, stat, _ = _irls_stage(
                mesh, values, pk, eps0, free, free_mask, hn, stage_tol,
                problem.max_inner,
            )
            trace_log.append({"stage": "p_ladder", "p": pk, "eps": eps0,
                              "iterations": iters, "stationarity": stat})

    eps_ladder = [eps0]
    while eps_ladder[-1] > eps_final:
        eps_ladder.append(max(eps_ladder[-1] / problem.eps_div, eps_final))
    if eps_final > eps0:
        eps_ladder = [eps_final]
    for j, eps in enumerate(eps_ladder):
        tol_here = problem.tol if j == len(eps_ladder) - 1 else stage_tol
        values, iters, stat, _ = _irls_stage(
            mesh, values, problem.p, eps, free, free_mask, hat_norms, tol_here,
            problem.max_inner,
        )
        trace_log.append({"stage": "eps_ladder", "p": problem.p, "eps": eps,
                          "iterations": iters, "stationarity": stat})

    u = fem.ScalarField(mesh, values)
    stat_true = p_stationarity(u, problem.p, problem.constraint_vertices)
    if stat_true > problem.tol:
        raise PLaplaceError(
            f"p-Laplace solve reached stationarity {stat_true:.3e} "
            f"> tolerance {problem.tol:.1e} within the iteration caps",
            best_field=u,
            stationarity=stat_true,
        )
    report = OptimalityReport(
        energy=p_energy(u, problem.p),
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
    iterations : per-stage trace of the continuation/IRLS loop
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


def perturbation_margin(u, delta, p, t, e0=None):
    """p_energy(u + t * delta) - p_energy(u); exactly zero for the zero
    direction.  e0, when given, is p_energy(u, p), saving its recomputation."""
    trial = fem.ScalarField(u.mesh, u.values + t * delta.values)
    return p_energy(trial, p) - (p_energy(u, p) if e0 is None else e0)


def minimality_certificate(u, p, constraint_vertices, trials=40, seed=0,
                           steps=(1e-3, 1e-2), margin_tol=1e-10):
    """Randomized local-minimality check.

    Draws `trials` random nodal directions vanishing on the constraint
    set, normalized to unit p-energy, and verifies
    p_energy(u) <= p_energy(u + t * delta) + margin_tol * scale
    for steps t in {+-steps} * scale, with scale = p_energy(u) (or 1
    for a flat field).  Returns an OptimalityReport whose certificate
    records the worst margin and any violations.
    """
    mesh = u.mesh
    fixed = np.asarray(sorted(constraint_vertices), dtype=np.int64)
    rng = np.random.default_rng(seed)
    e0 = p_energy(u, p)
    scale = e0 if e0 > 0.0 else 1.0

    worst = float("inf")
    violations = 0
    for _ in range(trials):
        direction = rng.standard_normal(mesh.num_vertices)
        direction[fixed] = 0.0
        dfield = fem.ScalarField(mesh, direction)
        dnorm = p_energy(dfield, p)
        if dnorm == 0.0:
            continue
        dfield = fem.ScalarField(mesh, direction / dnorm)
        for step in steps:
            for t in (step * scale, -step * scale):
                margin = perturbation_margin(u, dfield, p, t, e0)
                worst = min(worst, margin)
                if margin < -margin_tol * scale:
                    violations += 1

    cert = {
        "passed": violations == 0,
        "worst_margin": worst if worst != float("inf") else 0.0,
        "trials": trials,
        "violations": violations,
        "steps": list(steps),
    }
    return OptimalityReport(energy=e0, stationarity=None, iterations=[],
                            certificate=cert)
