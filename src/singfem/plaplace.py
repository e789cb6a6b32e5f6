"""Trace-constrained p-Laplace minimization.

Minimizes the regularized p-Dirichlet energy
sum_T area_T * (|grad u|_T^2 + eps^2)^(p/2) over nodal fields with
prescribed values on a constraint vertex set, by Armijo-damped Newton
steps on that energy (its Hessian is SPD for every p > 1 and eps > 0),
warm-started from the p = 2 solution and driven by continuation in p at
a fixed eps, followed by one final stage at the target eps.  Given the
minimizer on the parent of a refined mesh, the solve instead starts from
its prolongation and runs the final stage alone (nested iteration).
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
    eps_final : final regularization, or None for 1e-8 * scale where
        scale is the 2-energy of the start: the p = 2 warm start, or the
        prolonged parent minimizer when solve_p_laplace is given one
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


def _energy_terms(mesh, values, p, eps):
    """(energy, g, m): the regularized energy sum_T area_T m^(p/2) with
    the element gradients g = grad u and m = |g|^2 + eps^2."""
    g = _grad_values(mesh, values)
    m = g[:, 0] ** 2 + g[:, 1] ** 2 + eps * eps
    return float(np.sum(mesh.areas * m ** (p / 2.0))), g, m


def _energy_gradient(mesh, values, p, eps, terms=None):
    """One pass over the elements at the iterate.  Returns (energy, w, s,
    g, m): _energy_terms, the weights w = m^((p-2)/2) and
    s_i = <w grad u, grad hat_i>, the energy gradient over p.  terms,
    when given, is _energy_terms of the iterate, which is then not
    recomputed.  w and s are None for a zero or non-finite energy."""
    energy, g, m = _energy_terms(mesh, values, p, eps) if terms is None else terms
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
    return _exact_stationarity(mesh, u.values, p, free_mask, hat_norms)[0]


def _exact_stationarity(mesh, values, p, free_mask, hat_norms):
    """(stationarity, energy) of the field at eps = 0, the energy being
    sum_T area_T |grad u|^p.  Raises ValueError when it overflows."""
    with np.errstate(over="ignore"):
        energy, _, s, _, _ = _energy_gradient(mesh, values, p, 0.0)
    if not math.isfinite(energy):
        raise ValueError(f"the {p:g}-energy overflows double precision")
    return _stationarity(energy, s, p, free_mask, hat_norms), energy


_UPPER = np.triu_indices(3)  # the six entries i <= j of an element matrix


def _gram_entries(mesh):
    """The upper entries (in _UPPER order) of every element's Gram matrix
    grad l_i . grad l_j, an (nt, 6) array that depends on the mesh only.
    Column by column, it is einsum("tid,tjd->tij")[:, i, j] to the bit
    without that (nt, 3, 3) temporary."""
    gl = mesh.grad_lambda
    out = np.empty((mesh.num_triangles, 6))
    for k, (a, b) in enumerate(zip(*_UPPER)):
        np.einsum("td,td->t", gl[:, a], gl[:, b], out=out[:, k])
    return out


def _element_entries(mesh, gram, w, g=None, c=None):
    """The upper entries (in _UPPER order) of every element matrix
    area_T (w_T grad l_i . grad l_j + c_T (grad l_i . g_T)(grad l_j . g_T)),
    an (nt, 6) array, from the mesh's _gram_entries.  Without c it is the
    w-weighted stiffness; with c = (p - 2) w / m and the g, m, w of
    _energy_gradient it is the Hessian of the regularized energy over p."""
    i, j = _UPPER
    out = gram * (mesh.areas * w)[:, None]
    if c is not None:
        q = np.einsum("tid,td->ti", mesh.grad_lambda, g)
        aniso = q[:, i]
        aniso *= q[:, j]
        aniso *= (mesh.areas * c)[:, None]
        out += aniso
    return out


class _BandedStiffness:
    """The free block of a matrix assembled from element matrices of one
    mesh, held in LAPACK lower band storage and solved by band Cholesky.

    The free vertices are numbered by reverse Cuthill-McKee.  The band
    slot of each element entry (i, j) with both vertices free, taken on
    or below the diagonal in that numbering, depends only on the mesh and
    the free set, so it is computed once, and so are the element Gram
    entries (gram, see _gram_entries) that every system of the solve
    scales.  One Fortran-ordered (bw + 1, n) band is allocated once too:
    each system (the stiffness of the warm start, then every Newton
    Hessian) refills it from the element entries of _element_entries, and
    LAPACK factors it in place.  Every system goes through this object,
    band or not, so it holds gram either way.

    The band costs O(n bw) memory and O(n bw^2) time, about n^1.5 and n^2
    on a 2D mesh, against SuperLU's slower-growing fill.  So the band is
    kept only while it holds at most MAX_FILL entries per structural
    nonzero of the free block (and its allocation succeeds); otherwise ab
    is None and every system goes to SuperLU.  On unit squares with
    Dirichlet sides the ratio is 18 at n = 128 and 37 at n = 256, where
    the band still factors 3x faster than SuperLU, whose L + U holds 14
    and 19 entries per nonzero; it reaches about 73 at n = 512 (a 1 GB
    band).
    """

    MAX_FILL = 40

    def __init__(self, mesh, free):
        # First: allocated after the layout's temporaries, it left the heap
        # fragmented and a cusp sweep's peak resident set 3-5 MB higher in
        # many runs.
        self.gram = _gram_entries(mesh)
        n = len(free)
        local = np.full(mesh.num_vertices, -1, dtype=np.int64)
        local[free] = np.arange(n)
        i, j = _UPPER
        a = local[mesh.triangles[:, i]].ravel()
        b = local[mesh.triangles[:, j]].ravel()
        self.entries = np.nonzero((a >= 0) & (b >= 0))[0]  # into the flat (nt, 6)
        a, b = a[self.entries], b[self.entries]
        graph = csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])),
                           shape=(n, n))
        self.perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[self.perm] = np.arange(n)
        lo = np.minimum(rank[a], rank[b])
        depth = np.abs(rank[a] - rank[b])
        self.bandwidth = int(depth.max())
        self.slot = depth + (self.bandwidth + 1) * lo  # ab[depth, lo], Fortran order
        self.ab = None
        if (self.bandwidth + 1) * n <= self.MAX_FILL * graph.nnz:
            try:
                self.ab = np.zeros((self.bandwidth + 1, n), order="F")
            except MemoryError:
                pass

    def band(self, entries):
        """Refill the band with the free block assembled from the (nt, 6)
        element entries, permuted, and return it."""
        self.ab.fill(0.0)
        np.add.at(self.ab.reshape(-1, order="F"), self.slot,
                  entries.reshape(-1)[self.entries])
        return self.ab

    def solve(self, entries, rhs):
        """The assembled free block's inverse applied to rhs; LinAlgError
        on a non-positive pivot."""
        cb = cholesky_banded(self.band(entries), lower=True, overwrite_ab=True,
                             check_finite=False)
        x = cho_solve_banded((cb, True), rhs[self.perm], overwrite_b=True,
                             check_finite=False)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


def _sparse_block(mesh, entries, free):
    """The free block, in CSC, of the matrix assembled from the (nt, 6)
    element entries: the same matrix _BandedStiffness.band holds."""
    i, j = _UPPER
    local = np.empty((mesh.num_triangles, 3, 3))
    local[:, i, j] = entries
    local[:, j, i] = entries
    return fem._assemble(mesh, local).tocsc()[free][:, free].tocsc()


def _solve_assembled(mesh, values, entries, free, band, rhs):
    """Solve with the free block assembled from the element entries, by
    band Cholesky, or by SuperLU when the band was too wide to keep or
    meets a non-positive pivot from rounding; a SuperLU failure raises
    PLaplaceError carrying the iterate."""
    if band.ab is not None:
        try:
            return band.solve(entries, rhs)
        except LinAlgError:
            pass
    try:
        return splu(_sparse_block(mesh, entries, free)).solve(rhs)
    except RuntimeError as exc:
        raise PLaplaceError(f"Newton system is singular ({exc})",
                            best_field=fem.ScalarField(mesh, values)) from exc


def _newton_step(mesh, values, p, w, s, g, m, free, band):
    """Solve H_ff delta = -s_f with H the Hessian over p of the regularized
    energy, from the output of _energy_gradient (see _solve_assembled).
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
    entries = _element_entries(mesh, band.gram, w + 1e-14 * wmax, g, c)
    return _solve_assembled(mesh, values, entries, free, band, -s[free])


# The continuation schedule of solve_p_laplace: p grows by at most the
# factor _P_STEP per stage at eps = _EPS_START_FACTOR times the 2-energy
# of the warm start, then one final stage takes eps to eps_final; every
# stage takes at most _MAX_INNER Newton steps.
_P_STEP = 1.5
_EPS_START_FACTOR = 1e-2
_MAX_INNER = 120


def _newton_stage(mesh, values, p, eps, free, free_mask, band, hat_norms, tol):
    """Run damped Newton at fixed (p, eps).  Returns (values, iters, stat,
    line_search_ok).  Each step makes one pass over the elements for the
    energy gradient and solves the Hessian system by band Cholesky (see
    _newton_step).  The element terms of an iterate are computed once:
    at the stage's entry, or by the line search that accepts it."""
    with np.errstate(over="ignore"):
        terms = _energy_terms(mesh, values, p, eps)
    energy = terms[0]
    if not math.isfinite(energy):
        raise PLaplaceError(
            f"regularized {p:g}-energy overflows double precision",
            best_field=fem.ScalarField(mesh, values),
        )
    for it in range(_MAX_INNER + 1):
        _, w, s, g, m = _energy_gradient(mesh, values, p, eps, terms)
        stat = _stationarity(energy, s, p, free_mask, hat_norms)
        if stat <= tol or it == _MAX_INNER:
            return values, it, stat, True

        delta = _newton_step(mesh, values, p, w, s, g, m, free, band)
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
            terms = _energy_terms(mesh, trial, p, eps)
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
    at p = 2, continues multiplicatively in p (steps of at most a factor
    _P_STEP) at eps0, then runs one final stage at (p, eps_final) to the
    problem tolerance; the trace records each stage, named "p_ladder" or
    "final".  Given `coarse`, the minimizer on problem.mesh.parent, the
    solve starts instead from mesh.prolongation @ coarse.values on the
    free vertices (the constraint values stay f's) and runs the final
    stage alone; scale, and so the default eps_final, is then the
    2-energy of that prolonged start, and the trace's "warm_start" entry
    carries "source": "parent".  A `coarse` on any other mesh, or with a
    non-finite value, raises ValueError.  The regularized energy never
    increases along accepted steps.  The mesh and the free set are fixed
    throughout, so one band layout under one reverse Cuthill-McKee
    ordering serves the warm start (the system at unit weights) and every
    Newton factorization of the solve (see _BandedStiffness).  If the final stationarity misses the
    problem tolerance, the hat-gradient norms or an energy overflow
    double precision, or a Newton system cannot be factored, a
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

    band = _BandedStiffness(mesh, free)
    if coarse is not None:
        values[free] = (mesh.prolongation @ coarse.values)[free]
        trace_log.append({"stage": "warm_start", "source": "parent", "iterations": 0})
    else:
        # p = 2 warm start: K_ff u_f = -K_fc u_c, the Hessian system at
        # p = 2 (unit weights, no (p - 2) term).  values is zero on the
        # free vertices for the product.
        values[free] = 0.0
        rhs = -(fem.stiffness_matrix(mesh) @ values)[free]
        values[free] = _solve_assembled(
            mesh, values, _element_entries(mesh, band.gram, np.ones(mesh.num_triangles)),
            free, band, rhs)
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
    ladder = [] if coarse is not None else _continuation_ladder(2.0, problem.p, _P_STEP)[1:]
    schedule = [(pk, eps0, stage_tol, "p_ladder") for pk in ladder]
    schedule.append((problem.p, eps_final, problem.tol, "final"))
    for pk, eps, tol, name in schedule:
        hn = hat_norms if pk == problem.p else hat_norms_at(pk)
        values, iters, stat, ok = _newton_stage(
            mesh, values, pk, eps, free, free_mask, band, hn, tol)
        trace_log.append({"stage": name, "p": pk, "eps": eps, "iterations": iters,
                          "stationarity": stat, "line_search_ok": ok})

    u = fem.ScalarField(mesh, values)
    # The exact measure of p_stationarity, on the hat norms already held;
    # its energy gives p_energy(u, p) to the bit.
    stat_true, energy = _exact_stationarity(mesh, values, problem.p, free_mask, hat_norms)
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


def perturbation_margin(u, delta, p, t, e0=None):
    """p_energy(u + t * delta) - p_energy(u); exactly zero for the zero
    direction.  e0, when given, is p_energy(u, p), saving its recomputation."""
    gu = fem.gradient(u)
    return _margin(gu, fem.gradient(delta), p, t, fem.lp_norm(gu, p) if e0 is None else e0)


def _margin(gu, gd, p, t, e0):
    """perturbation_margin from the gradients of u and delta: the P1
    gradient is linear, so grad(u + t delta) = grad u + t grad delta."""
    return fem.lp_norm(fem.VectorField(gu.mesh, gu.values + t * gd.values), p) - e0


_CERTIFICATE_STEPS = (1e-3, 1e-2)  # perturbation sizes, relative to the energy
_CERTIFICATE_MARGIN_TOL = 1e-10


def minimality_certificate(u, p, constraint_vertices, trials=40, seed=0):
    """Randomized local-minimality check.

    Draws `trials` random nodal directions vanishing on the constraint
    set, normalized to unit p-energy, and verifies
    p_energy(u) <= p_energy(u + t * delta) + 1e-10 * scale
    for steps t in {+-1e-3, +-1e-2} * scale, with scale = p_energy(u) (or 1
    for a flat field).  Returns an OptimalityReport whose certificate
    records the worst margin and any violations.  The gradients of u and
    of each direction are taken once (see _margin).
    """
    mesh = u.mesh
    fixed = np.asarray(sorted(constraint_vertices), dtype=np.int64)
    rng = np.random.default_rng(seed)
    gu = fem.gradient(u)
    e0 = fem.lp_norm(gu, p)
    scale = e0 if e0 > 0.0 else 1.0

    worst = float("inf")
    violations = 0
    for _ in range(trials):
        direction = rng.standard_normal(mesh.num_vertices)
        direction[fixed] = 0.0
        gd = fem.gradient(fem.ScalarField(mesh, direction))
        dnorm = fem.lp_norm(gd, p)
        if dnorm == 0.0:
            continue
        gd = fem.VectorField(mesh, gd.values / dnorm)
        for step in _CERTIFICATE_STEPS:
            for t in (step * scale, -step * scale):
                margin = _margin(gu, gd, p, t, e0)
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
