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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from . import fem
# Not called here: the p = 2 warm start is a band solve.  The name stays
# bound because perfbench/tracer.py patches it in this module.
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
    seed : has no effect (the p = 2 warm start is a direct solve); kept
        for interface stability and slated for removal
    """

    mesh: object
    constraint_vertices: frozenset
    f: fem.ScalarField
    p: float
    eps_final: float | None = None
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
        if self.eps_final is not None and self.eps_final < 0.0:
            raise ValueError("eps_final must be >= 0")


def _grad_values(mesh, values):
    return np.einsum("tid,ti->td", mesh.grad_lambda, values[mesh.triangles])


def _reg_energy(mesh, values, p, eps):
    g = _grad_values(mesh, values)
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2
    return float(np.sum(mesh.areas * (mag2 + eps * eps) ** (p / 2.0)))


def _energy_gradient(mesh, values, p, eps):
    """One pass over the elements at the iterate.  Returns (energy, w, s):
    the regularized energy sum_T area_T |grad u|_eps^p, the weights
    w = |grad u|_eps^(p-2) and s_i = <w grad u, grad hat_i>, the energy
    gradient over p.  w and s are None for a zero or non-finite energy."""
    g = _grad_values(mesh, values)
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2 + eps * eps
    energy = float(np.sum(mesh.areas * mag2 ** (p / 2.0)))
    if energy == 0.0 or not math.isfinite(energy):
        return energy, None, None
    with np.errstate(divide="ignore"):
        w = mag2 ** ((p - 2.0) / 2.0)
    # For p < 2, w is inf where grad u = 0 (possible only at eps = 0), but
    # w grad u -> 0 there for every p > 1.
    w[mag2 == 0.0] = 0.0
    return energy, w, fem.grad_test_vector(mesh, w[:, None] * g)


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
    with np.errstate(over="ignore"):
        energy, _, s = _energy_gradient(mesh, u.values, p, 0.0)
    if not math.isfinite(energy):
        raise ValueError(f"the {p:g}-energy overflows double precision")
    return _stationarity(energy, s, p, free_mask, hat_norms)


class _BandedStiffness:
    """The reweighted stiffness block K_ff(w) of one mesh and free set,
    assembled straight into LAPACK lower band storage and solved by band
    Cholesky.

    The free vertices are numbered by reverse Cuthill-McKee.  The band
    slot of each element's entries (i, j) with both vertices free, taken
    on or below the diagonal in that numbering, and the geometric factor
    (grad lambda_i . grad lambda_j) area_t depend only on the mesh and
    the free set, so they are computed once.  One Fortran-ordered
    (bw + 1, n) band is allocated once too: each reweighting refills it
    and LAPACK factors it in place.

    The band costs O(n bw) memory and O(n bw^2) time, about n^1.5 and n^2
    on a 2D mesh, against SuperLU's slower-growing fill.  So the band is
    kept only while it holds at most MAX_FILL entries per structural
    nonzero of K_ff (and its allocation succeeds); otherwise ab is None
    and every step goes to SuperLU.  On unit squares with Dirichlet sides
    the ratio is 18 at n = 128 and 37 at n = 256, where the band still
    factors 3x faster than SuperLU, whose L + U holds 14 and 19 entries
    per nonzero; it reaches about 73 at n = 512 (a 1 GB band).
    """

    MAX_FILL = 40

    def __init__(self, mesh, free):
        n = len(free)
        local = np.full(mesh.num_vertices, -1, dtype=np.int64)
        local[free] = np.arange(n)
        i, j = np.triu_indices(3)  # the six entries i <= j of an element
        a = local[mesh.triangles[:, i]].ravel()
        b = local[mesh.triangles[:, j]].ravel()
        entries = np.nonzero((a >= 0) & (b >= 0))[0]
        a, b = a[entries], b[entries]
        graph = csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])),
                           shape=(n, n))
        self.perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[self.perm] = np.arange(n)
        lo = np.minimum(rank[a], rank[b])
        depth = np.abs(rank[a] - rank[b])
        self.bandwidth = int(depth.max())
        self.slot = depth + (self.bandwidth + 1) * lo  # ab[depth, lo], Fortran order
        self.tri = entries // len(i)
        gl = mesh.grad_lambda
        geom = np.einsum("tid,tid->ti", gl[:, i], gl[:, j]) * mesh.areas[:, None]
        self.geom = geom.ravel()[entries]
        self.ab = None
        if (self.bandwidth + 1) * n <= self.MAX_FILL * graph.nnz:
            try:
                self.ab = np.zeros((self.bandwidth + 1, n), order="F")
            except MemoryError:
                pass

    def band(self, weights):
        """Refill the band with K_ff(weights), permuted, and return it."""
        self.ab.fill(0.0)
        np.add.at(self.ab.reshape(-1, order="F"), self.slot,
                  self.geom * weights[self.tri])
        return self.ab

    def solve(self, weights, rhs):
        """K_ff(weights)^-1 rhs; LinAlgError on a non-positive pivot."""
        cb = cholesky_banded(self.band(weights), lower=True, overwrite_ab=True,
                             check_finite=False)
        x = cho_solve_banded((cb, True), rhs[self.perm], overwrite_b=True,
                             check_finite=False)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


def _solve_reweighted(mesh, values, w, free, band, rhs):
    """K_ff(w)^-1 rhs by band Cholesky, or by SuperLU when the band was
    too wide to keep or meets a non-positive pivot from rounding; a
    SuperLU failure raises PLaplaceError carrying the iterate."""
    if band.ab is not None:
        try:
            return band.solve(w, rhs)
        except LinAlgError:
            pass
    K_ff = fem.stiffness_matrix(mesh, w).tocsc()[free][:, free]
    try:
        return splu(K_ff.tocsc()).solve(rhs)
    except RuntimeError as exc:
        raise PLaplaceError(f"reweighted IRLS system is singular ({exc})",
                            best_field=fem.ScalarField(mesh, values)) from exc


def _irls_step(mesh, values, w, s, free, band):
    """Solve the reweighted system K_ff(w) delta = -s_f (see _solve_reweighted);
    non-finite weights raise PLaplaceError carrying the iterate."""
    wmax = float(w.max())
    if not math.isfinite(wmax):
        raise PLaplaceError("IRLS weights are not finite",
                            best_field=fem.ScalarField(mesh, values))
    # Tiny relative floor keeps the reweighted matrix factorable where
    # the gradient degenerates; the step stays a descent direction
    # because the floored matrix is still SPD.
    return _solve_reweighted(mesh, values, w + 1e-14 * wmax, free, band, -s[free])


# The continuation schedule of solve_p_laplace: p grows by at most the
# factor _P_STEP per stage; eps starts at _EPS_START_FACTOR times the
# 2-energy of the warm start and falls by _EPS_DIV per stage; every stage
# takes at most _MAX_INNER IRLS steps.
_P_STEP = 1.5
_EPS_START_FACTOR = 1e-2
_EPS_DIV = 10.0
_MAX_INNER = 120


def _irls_stage(mesh, values, p, eps, free, free_mask, band, hat_norms, tol):
    """Run damped IRLS at fixed (p, eps).  Returns (values, iters, stat,
    line_search_ok).  Each step makes one pass over the elements for the
    energy gradient and solves the reweighted system by band Cholesky
    (see _irls_step)."""
    with np.errstate(over="ignore"):
        energy = _reg_energy(mesh, values, p, eps)
    if not math.isfinite(energy):
        raise PLaplaceError(
            f"regularized {p:g}-energy overflows double precision",
            best_field=fem.ScalarField(mesh, values),
        )
    for it in range(_MAX_INNER):
        _, w, s = _energy_gradient(mesh, values, p, eps)
        stat = _stationarity(energy, s, p, free_mask, hat_norms)
        if stat <= tol:
            return values, it, stat, True

        delta = _irls_step(mesh, values, w, s, free, band)
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
            return values, it + 1, stat, False
        if e_trial > energy * (1.0 + 1e-12) + 1e-300:
            raise PLaplaceError(
                f"regularized energy increased on an accepted step "
                f"({energy!r} -> {e_trial!r})",
                best_field=None,
            )
        values, energy = trial, e_trial
    _, _, s = _energy_gradient(mesh, values, p, eps)
    stat = _stationarity(energy, s, p, free_mask, hat_norms)
    return values, _MAX_INNER, stat, True


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
    at p = 2, continues multiplicatively in p (steps of at most a factor
    _P_STEP), then drives the regularization down a decade at a time to
    eps_final.  The regularized energy never increases along accepted
    steps.  The mesh and the free set are fixed throughout, so one band
    layout under one reverse Cuthill-McKee ordering serves the warm start
    (the system at unit weights) and every IRLS factorization of the
    solve (see _BandedStiffness).  If the final stationarity misses the
    problem tolerance, the hat-gradient norms or an energy overflow
    double precision, or a reweighted system cannot be factored, a
    PLaplaceError carrying the best iterate is raised.
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

    # p = 2 warm start: K_ff u_f = -K_fc u_c, the reweighted system at
    # unit weights.  values is zero on the free vertices for the product.
    band = _BandedStiffness(mesh, free)
    values[free] = 0.0
    rhs = -(fem.stiffness_matrix(mesh) @ values)[free]
    values[free] = _solve_reweighted(mesh, values, np.ones(mesh.num_triangles), free, band, rhs)
    trace_log.append({"stage": "warm_start", "p": 2.0, "iterations": 0})

    u2 = fem.ScalarField(mesh, values.copy())
    scale = p_energy(u2, 2)
    if scale == 0.0:
        scale = 1.0
    eps0 = _EPS_START_FACTOR * scale
    eps_final = problem.eps_final if problem.eps_final is not None else 1e-8 * scale

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
    stage_tol = max(problem.tol, 1e-6)

    if problem.p != 2.0:
        for pk in _continuation_ladder(2.0, problem.p, _P_STEP)[1:]:
            values, iters, stat, _ = _irls_stage(
                mesh, values, pk, eps0, free, free_mask, band, hat_norms_at(pk), stage_tol,
            )
            trace_log.append({"stage": "p_ladder", "p": pk, "eps": eps0,
                              "iterations": iters, "stationarity": stat})

    eps_ladder = [eps0]
    while eps_ladder[-1] > eps_final:
        eps_ladder.append(max(eps_ladder[-1] / _EPS_DIV, eps_final))
    if eps_final > eps0:
        eps_ladder = [eps_final]
    for j, eps in enumerate(eps_ladder):
        tol_here = problem.tol if j == len(eps_ladder) - 1 else stage_tol
        values, iters, stat, _ = _irls_stage(
            mesh, values, problem.p, eps, free, free_mask, band, hat_norms, tol_here,
        )
        trace_log.append({"stage": "eps_ladder", "p": problem.p, "eps": eps,
                          "iterations": iters, "stationarity": stat})

    u = fem.ScalarField(mesh, values)
    stat_true = p_stationarity(u, problem.p, problem.constraint_vertices)
    if not stat_true <= problem.tol:
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
