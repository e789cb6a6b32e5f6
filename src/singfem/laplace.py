"""Mixed Dirichlet-Neumann and pure-Neumann Laplace solvers, and
`_FreeBlockSolver`, through which every SPD system of the package goes
but one: fem.weak_divergence factors the mass matrix with SuperLU.

Both problems are one weak equation, solved by one
`_FreeBlockSolver.constrained` call off a pinned vertex set: the vertices
of the Dirichlet edges (with their singular vertices), where the data is
imposed strongly, or vertex 0 for compatible pure-Neumann data, whose
zero-mean gauge then subtracts the solution's mean.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from . import fem
from .geometry import BoundaryPartition, PartitionError


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class CompatibilityError(ValueError):
    """Pure-Neumann data violates the compatibility condition."""

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = defect


def conjugate_gradient(A, b, precondition, x0=None, rtol=1e-12, maxiter=None):
    """Preconditioned conjugate gradients for a sparse SPD system.

    `precondition` maps a residual r to z = B r for a symmetric positive
    definite B approximating A^-1.  Terminates when the recursively
    updated residual satisfies ||r|| <= rtol * ||b||.  Returns
    (x, iterations); raises SolverError past the iteration cap, on
    breakdown (a search direction with d.Ad <= 0, so A is not positive
    definite) and on a non-finite residual.
    """
    n = A.shape[0]
    if maxiter is None:
        maxiter = max(20 * n, 50)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        bnorm = 1.0
    if np.linalg.norm(r) <= rtol * bnorm:
        return x, 0
    z = precondition(r)
    d = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        q = A @ d
        dq = float(d @ q)
        if not dq > 0.0:
            raise SolverError(
                f"conjugate gradients broke down at iteration {it}: d.Ad = {dq!r} "
                "is not positive",
                iterations=it,
            )
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise SolverError(
                f"conjugate gradients produced a non-finite residual at iteration {it}",
                iterations=it,
            )
        if rnorm <= rtol * bnorm:
            return x, it
        z = precondition(r)
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise SolverError(
        f"conjugate gradients stalled after {maxiter} iterations "
        f"(relative residual {float(np.linalg.norm(r)) / bnorm:.3e}, target {rtol:.1e})",
        iterations=maxiter,
        residual=float(np.linalg.norm(r)) / bnorm,
    )


# Smoothing steps before and after each coarse correction of the V-cycle.
_SMOOTHING_STEPS = 2


def _multigrid(mesh, A, free):
    """Symmetric V-cycle preconditioner for A = K[free][:, free] on mesh.

    The levels follow mesh's refinement chain (Mesh.parent).  A parent
    vertex keeps its index in the child, so each coarse free set is the
    fine free set below parent.num_vertices; the child's prolongation
    restricted to the free rows and the coarse free columns is the
    transfer P, and P^T A P is the coarse operator (Galerkin).  The
    chain ends at a mesh without a parent, whose block is factored by
    SuperLU, so a mesh without a parent gets an exact solve.  The
    smoother is l1-Jacobi, D = row sums of |A|: D - A is diagonally
    dominant, hence 2D - A is positive definite on any mesh, which keeps
    the V-cycle symmetric positive definite with no damping factor to
    choose.  Returns the callable r -> V-cycle(r) for
    `conjugate_gradient`.
    """
    levels = []
    while mesh.parent is not None:
        coarse = free[free < mesh.parent.num_vertices]
        P = mesh.prolongation[free][:, coarse].tocsr()
        R = P.T.tocsr()
        levels.append((A, 1.0 / np.asarray(abs(A).sum(axis=1)).ravel(), P, R))
        A = (R @ A @ P).tocsr()
        mesh, free = mesh.parent, coarse
    # Not a closure calling itself: that cycle kept the SuperLU factor alive.
    return functools.partial(_vcycle, levels, splu(A.tocsc()))


def _vcycle(levels, root, b, k=0):
    if k == len(levels):
        return root.solve(b)
    A, dinv, P, R = levels[k]
    x = dinv * b
    for _ in range(_SMOOTHING_STEPS - 1):
        x += dinv * (b - A @ x)
    x += P @ _vcycle(levels, root, R @ (b - A @ x), k + 1)
    for _ in range(_SMOOTHING_STEPS):
        x += dinv * (b - A @ x)
    return x


# Bytes a band may take: enough for the cusp k = 3, n = 6 through refine 4
# (56.6 MiB), not for the square n = 64 refined twice (128 MiB).
_BAND_BUDGET = 64 * 2**20


def _band_order(K_ff):
    """(perm, its inverse, bandwidth) of the reverse Cuthill-McKee order of
    the CSR block's pattern; None if (bandwidth + 1) * n doubles exceed
    _BAND_BUDGET."""
    n = K_ff.shape[0]
    perm = reverse_cuthill_mckee(K_ff, symmetric_mode=True)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    rows = np.repeat(rank, np.diff(K_ff.indptr))
    bandwidth = int(np.abs(rows - rank[K_ff.indices]).max(initial=0))
    if (bandwidth + 1) * n * 8 > _BAND_BUDGET:
        return None
    return perm, rank, bandwidth


class _FreeBlockSolver:
    """Solver of the free blocks, on one mesh and free set, of the
    stiffness matrix K it assembles and holds, and of any matrix of (nt, 6)
    element entries (fem._element_entries).  The rule (_band_order on K's
    block): band Cholesky on the RCM order, the band refilled by each
    system and factored in place, when it fits _BAND_BUDGET; otherwise
    CG preconditioned by _multigrid, whose SuperLU root makes a mesh
    without a parent a direct solve.  A band that cannot be allocated,
    or meets a non-positive pivot from rounding, falls to MG-PCG.  gram,
    the mesh's fem._gram_entries, is built here for a band, else on use."""

    def __init__(self, mesh, free, rtol):
        self.mesh, self.free, self.rtol, self.ab = mesh, free, rtol, None
        self.K = fem.stiffness_matrix(mesh)
        K_ff = _free_block(self.K, free)
        order = _band_order(K_ff) if len(free) else None  # RCM needs a vertex
        if order is not None:
            self.perm, rank, self.bandwidth = order
            # gram before the slot arrays: allocated after their temporaries,
            # it left the heap fragmented and a cusp sweep's peak resident set
            # 3-5 MB higher in many runs.
            self.gram
            local = np.full(mesh.num_vertices, -1, dtype=np.int64)
            local[free] = rank
            a, b = (local[mesh.triangles[:, k]].ravel() for k in fem._UPPER)
            # Per entry of the flat (nt, 6), the flat index of ab[|a - b|,
            # min(a, b)] in Fortran order; an entry on a constrained vertex
            # goes to the first slot of a spare column past the band.  The
            # budget keeps every index within int32.
            rows = self.bandwidth + 1
            self.slot = np.where((a >= 0) & (b >= 0), np.abs(a - b) + rows * np.minimum(a, b),
                                 rows * len(free)).astype(np.int32)
            with contextlib.suppress(MemoryError):
                padded = np.zeros((rows, len(free) + 1), order="F")
                self.padded = padded.reshape(-1, order="F")
                self.ab = padded[:, :-1]  # still Fortran-contiguous
        # MG-PCG's block; one falling from the band is assembled instead.
        self.K_ff = K_ff if self.ab is None else None

    @functools.cached_property
    def gram(self):
        return fem._gram_entries(self.mesh)

    def band(self, entries):
        """Refill the band with the free block of the element entries,
        permuted, and return it."""
        self.padded.fill(0.0)
        np.add.at(self.padded, self.slot, entries.reshape(-1))
        return self.ab

    def system(self, entries=None):
        """solve(rhs, x0=None) -> (x, iterations) of the block of the
        element entries (K's when None).  A band solve reports 0 iterations
        and lasts until the next call.  MG-PCG runs from x0 to relative
        residual rtol; it raises SolverError, or SuperLU's RuntimeError on
        a singular root."""
        if self.ab is not None:
            if entries is None:
                entries = fem._element_entries(self.mesh, self.gram, 1.0)
            try:
                cb = cholesky_banded(self.band(entries), lower=True, overwrite_ab=True,
                                     check_finite=False)
                return functools.partial(self._band_solve, cb)
            except LinAlgError:
                pass
        A = (self.K_ff if entries is None
             else _free_block(fem._assemble(self.mesh, entries), self.free))
        cycle = _multigrid(self.mesh, A, self.free)
        return lambda rhs, x0=None: conjugate_gradient(A, rhs, cycle, x0=x0, rtol=self.rtol)

    def constrained(self, values, b=None, x0=None):
        """(u, iterations): values off the free set and, on it, the solution
        of K_ff u_f = b_f - K_fc u_c (b = 0 if None; MG-PCG starts at x0_f)."""
        u, free = np.array(values, dtype=np.float64), self.free
        if not len(free):
            return u, 0
        u[free] = 0.0
        rhs = (self.K @ u)[free]  # K_fc u_c, made the right-hand side in place
        if b is None:
            np.negative(rhs, out=rhs)  # not 0.0 - rhs: a zero keeps its sign
        else:
            np.subtract(b[free], rhs, out=rhs)
        u[free], iterations = self.system()(rhs, None if x0 is None else x0[free])
        return u, iterations

    def _band_solve(self, cb, rhs, x0=None):
        x = cho_solve_banded((cb, True), rhs[self.perm], overwrite_b=True,
                             check_finite=False)
        out = np.empty_like(x)
        out[self.perm] = x
        return out, 0


def _free_block(A, free):
    """The CSR block A[free][:, free] of a CSR matrix A, free sorted, with
    sorted indices: the arrays the slower A.tocsc()[:, free][free].tocsr()
    gives."""
    block = A[free][:, free]
    block.sort_indices()
    return block


@dataclass(eq=False)
class MixedProblem:
    """Laplace problem with strong Dirichlet and natural Neumann data.

    partition : boundary split; the Dirichlet region must be non-empty
    g : ScalarField, the load (the equation reads div grad u = g)
    f : ScalarField, Dirichlet values (read at Dirichlet vertices)
    theta : edge cotrace of conormal flux on the Neumann region, or None
    """

    partition: BoundaryPartition
    g: fem.ScalarField
    f: fem.ScalarField
    theta: fem.BoundaryTrace | None = None

    def __post_init__(self):
        if len(self.partition.region_edges("dirichlet")) == 0:
            raise PartitionError("mixed problem requires a non-empty Dirichlet region")
        for fld in (self.g, self.f):
            if fld.mesh is not self.partition.mesh:
                raise fem.FieldError("problem data lives on a different mesh")
        if self.theta is not None and self.theta.partition is not self.partition:
            raise fem.FieldError("theta must be a cotrace on the same partition")


@dataclass(eq=False)
class NeumannProblem:
    """Pure-Neumann Laplace problem.

    theta : edge cotrace over the full boundary; solve_neumann accepts data
            whose defect is at most 1e-8 (||g||_L2 + ||theta||_L2(bdry) + 1)
    """

    partition: BoundaryPartition
    g: fem.ScalarField
    theta: fem.BoundaryTrace

    def __post_init__(self):
        if self.g.mesh is not self.partition.mesh:
            raise fem.FieldError("problem data lives on a different mesh")
        if self.theta.partition is not self.partition:
            raise fem.FieldError("theta must be a cotrace on the same partition")


def _theta_vector(partition, theta):
    if theta is None:
        return np.zeros(partition.mesh.num_vertices)
    return fem.boundary_functional(partition, theta)


def _boundary_l2(partition, theta):
    lens = partition.mesh.boundary_lengths[theta.indices]
    return float(np.sqrt(np.sum(lens * theta.values**2)))


def compatibility_defect(g, theta):
    """Defect <g, 1> - <theta, trace 1> of the pure-Neumann data."""
    partition = theta.partition
    ones = fem.ScalarField.constant(partition.mesh, 1.0)
    pairing = fem.boundary_pairing(fem.trace(partition, ones, theta.region), theta)
    return fem.scalar_inner(g, ones) - pairing


def _weak_residual(K, b, partition, u, g):
    """Normalized strong-form residual of the discrete weak equation K u = b,
    K being the mesh's stiffness matrix and b the right-hand side
    b_i = <theta, trace hat_i> - <g, hat_i> that was solved.

    max over hat functions vanishing on the Dirichlet region of
    |<grad u, grad hat> - <theta, trace hat> + <g, hat>|, divided by
    ||u||_{W^{1,2}} + ||g||_{L^2} + 1; nan when that normalizer overflows.
    """
    r = K @ u.values
    r -= b
    r[partition.region_vertices("dirichlet")] = 0.0
    num = float(np.max(np.abs(r), initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        den = fem.w1p_norm(u, 2) + fem.lp_norm(g, 2) + 1.0
    # Relative to an overflowed norm, any residual reads 0; nan fails the gates.
    return num / den if math.isfinite(den) else math.nan


def _overflow_note(x):
    """What a gate's error message adds when its figure x is not finite."""
    return "" if math.isfinite(x) else " (a norm overflowed)"


# The largest weak residual a mixed solve may leave (a Neumann solve: plus
# its data's compatibility defect).
_DEFAULT_RESIDUAL_TOL = 1e-10
_COMPATIBILITY_RTOL = 1e-8


def _solve_weak(partition, values, pinned, g, theta, rtol, x0=None, mean_gauge=False):
    """(field, iterations, weak residual) of the Laplace equation, values
    kept on the pinned vertices; mean_gauge shifts to zero mean."""
    mesh = partition.mesh
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[pinned] = False
    # K's assembly in the solver sets laplace_refined's peak RSS (about 126 MB).
    # Allocation order moves it with the same arrays alive (b built before the
    # solver: 2 MB higher at 1 of 16 hash seeds), so keep this order, the solver
    # dropped before the residual and constrained()'s in-place rhs.
    solver = _FreeBlockSolver(mesh, np.nonzero(mask)[0], rtol)
    b = _theta_vector(partition, theta) - fem._load_vector(g)
    u, iterations = solver.constrained(values, b, x0)
    K = solver.K
    del solver
    if mean_gauge:
        ones = fem.ScalarField.constant(mesh, 1.0)
        u -= fem.scalar_inner(fem.ScalarField(mesh, u), ones) / fem.scalar_inner(ones, ones)
    field = fem.ScalarField(mesh, u)
    return field, iterations, _weak_residual(K, b, partition, field, g)


def solve_mixed(problem, x0=None, rtol=1e-12):
    """Solve the mixed problem; returns (ScalarField, info dict).

    info carries the CG iteration count (0 for a band solve) and the
    final weak residual.  x0 optionally seeds the CG iteration where the
    solve takes MG-PCG (the solution is independent of it up to the
    solver tolerance).
    """
    partition = problem.partition
    field, iterations, res = _solve_weak(
        partition, problem.f.values, partition.region_vertices("dirichlet"), problem.g,
        problem.theta, rtol, None if x0 is None else x0.values)
    if not res <= _DEFAULT_RESIDUAL_TOL:
        raise SolverError(
            f"mixed solve left weak residual {res:.3e}, not at most "
            f"{_DEFAULT_RESIDUAL_TOL:.1e}{_overflow_note(res)}",
            iterations=iterations, residual=res)
    return field, {"iterations": iterations, "residual": res, "defect": None}


def solve_neumann(problem, gauge="mean", rtol=1e-12):
    """Solve the pure-Neumann problem; returns (ScalarField, info dict).

    Incompatible data is rejected with CompatibilityError carrying the
    defect.  The solve pins vertex 0 to zero, which makes the free block
    positive definite; gauge "vertex" returns that solution, gauge
    "mean" (default) shifts it to zero mean against the domain measure.
    """
    if gauge not in ("mean", "vertex"):
        raise ValueError(f"unknown gauge {gauge!r}; choose 'mean' or 'vertex'")
    partition = problem.partition
    with np.errstate(over="ignore", invalid="ignore"):
        defect = compatibility_defect(problem.g, problem.theta)
        scale = fem.lp_norm(problem.g, 2) + _boundary_l2(partition, problem.theta) + 1.0
    tol = _COMPATIBILITY_RTOL * scale if math.isfinite(scale) else math.nan
    if not abs(defect) <= tol:
        raise CompatibilityError(
            f"incompatible Neumann data: <g,1> - <theta, trace 1> = {defect!r} "
            f"is not within tolerance {tol:.3e}{_overflow_note(tol)}; the load and "
            "flux must balance",
            defect=defect,
        )

    field, iterations, res = _solve_weak(
        partition, np.zeros(partition.mesh.num_vertices), [0], problem.g, problem.theta,
        rtol, mean_gauge=gauge == "mean")
    # The consistency defect spreads over all hat functions; admit it
    # on top of the solver tolerance.
    if not res <= _DEFAULT_RESIDUAL_TOL + abs(defect):
        raise SolverError(
            f"neumann solve left weak residual {res:.3e}{_overflow_note(res)}",
            iterations=iterations, residual=res)
    return field, {"iterations": iterations, "residual": res, "defect": defect}
