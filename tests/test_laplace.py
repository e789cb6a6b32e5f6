import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from singfem import (
    CompatibilityError,
    MixedProblem,
    NeumannProblem,
    ScalarField,
    SolverError,
    build_unit_square,
    compatibility_defect,
    partition_by_tags,
    scalar_inner,
    solve_mixed,
    solve_neumann,
    w1p_norm,
)
from singfem import fem, laplace
from singfem.fem import (
    FieldError,
    boundary_functional,
    flux_trace_from_function,
    mass_matrix,
    stiffness_matrix,
)
from singfem.geometry import PartitionError, build_annulus, build_cusp, refine
from singfem.laplace import conjugate_gradient


@pytest.fixture()
def square():
    return build_unit_square(8)


@pytest.fixture()
def mixed_part(square):
    return partition_by_tags(
        square, dirichlet=("left", "right"), neumann=("bottom", "top")
    )


@pytest.fixture()
def neumann_part(square):
    return partition_by_tags(square, neumann=("left", "right", "bottom", "top"))


# -- conjugate gradients ---------------------------------------------------------


def _jacobi(A):
    dinv = 1.0 / A.diagonal()
    return lambda r: dinv * r


def _identity(r):
    return r


def test_cg_matches_direct_solve(square):
    M = mass_matrix(square).tocsr()
    rng = np.random.default_rng(3)
    b = rng.standard_normal(M.shape[0])
    x, iters = conjugate_gradient(M, b, _jacobi(M), rtol=1e-13)
    ref = spsolve(M.tocsc(), b)
    assert iters > 0
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_cg_zero_rhs_is_free(square):
    M = mass_matrix(square).tocsr()
    x, iters = conjugate_gradient(M, np.zeros(M.shape[0]), _jacobi(M))
    assert iters == 0
    assert not x.any()


def test_cg_iteration_cap_raises():
    # second-difference matrix: needs O(n) iterations, so a cap of 2 fails
    A = sp.diags([-np.ones(199), 2.0 * np.ones(200), -np.ones(199)], (-1, 0, 1)).tocsr()
    b = np.ones(200)
    with pytest.raises(SolverError) as err:
        conjugate_gradient(A, b, _jacobi(A), rtol=1e-14, maxiter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 0.0


def test_cg_breakdown_raises_instead_of_dividing_by_zero():
    # indefinite: the first search direction has d.Ad < 0
    A = sp.diags([1.0, -3.0]).tocsr()
    with pytest.raises(SolverError, match="broke down"):
        conjugate_gradient(A, np.ones(2), _identity)
    # a NaN tolerance never stops the loop; the exact solution then
    # leaves a zero search direction
    with pytest.raises(SolverError, match="broke down"):
        conjugate_gradient(sp.identity(3, format="csr"), np.ones(3), _identity,
                           rtol=float("nan"))


def test_cg_non_finite_iterate_raises():
    # the Jacobi-scaled residual overflows, so the first step is inf / inf
    A = sp.diags([1e-300, 1e-300]).tocsr()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="non-finite"):
        conjugate_gradient(A, np.full(2, 1e10), _jacobi(A))


def test_solves_assemble_the_stiffness_matrix_once(square, mixed_part, neumann_part,
                                                   monkeypatch):
    calls = []
    assemble = fem.stiffness_matrix
    monkeypatch.setattr(fem, "stiffness_matrix", lambda *a: calls.append(1) or assemble(*a))
    zero = ScalarField.constant(square, 0.0)
    f = ScalarField.from_function(square, lambda x, y: x)
    solve_mixed(MixedProblem(mixed_part, zero, f))
    assert len(calls) == 1
    theta = flux_trace_from_function(neumann_part, "boundary", lambda x, y, nx, ny: nx)
    solve_neumann(NeumannProblem(neumann_part, zero, theta))
    assert len(calls) == 2


# -- mixed problems --------------------------------------------------------------


def test_mixed_reproduces_affine_exactly(square, mixed_part):
    exact = ScalarField.from_function(square, lambda x, y: x)
    problem = MixedProblem(
        partition=mixed_part,
        g=ScalarField.constant(square, 0.0),
        f=exact,
        theta=flux_trace_from_function(
            mixed_part, "neumann", lambda x, y, nx, ny: nx
        ),
    )
    u, info = solve_mixed(problem)
    assert np.max(np.abs(u.values - exact.values)) <= 1e-10
    assert info["residual"] <= 1e-10


def test_mixed_dirichlet_values_are_imposed_bitwise(square, mixed_part):
    f = ScalarField.from_function(square, lambda x, y: np.cos(3.0 * y) + x)
    problem = MixedProblem(
        partition=mixed_part, g=ScalarField.constant(square, 1.0), f=f
    )
    u, _ = solve_mixed(problem)
    fixed = mixed_part.region_vertices("dirichlet")
    assert np.array_equal(u.values[fixed], f.values[fixed])


def test_mixed_solution_independent_of_start(square, mixed_part):
    g = ScalarField.from_function(square, lambda x, y: np.sin(4.0 * x * y))
    problem = MixedProblem(
        partition=mixed_part, g=g, f=ScalarField.constant(square, 0.0)
    )
    base, _ = solve_mixed(problem)
    rng = np.random.default_rng(11)
    for _ in range(3):
        start = ScalarField(square, 10.0 * rng.standard_normal(square.num_vertices))
        other, _ = solve_mixed(problem, x0=start)
        assert w1p_norm(base - other, 2) <= 1e-9


def test_mixed_is_linear_in_the_load(square, mixed_part):
    zero = ScalarField.constant(square, 0.0)
    g1 = ScalarField.from_function(square, lambda x, y: x * y)
    g2 = ScalarField.from_function(square, lambda x, y: np.sin(3.0 * x))
    u1, _ = solve_mixed(MixedProblem(mixed_part, g1, zero))
    u2, _ = solve_mixed(MixedProblem(mixed_part, g2, zero))
    u12, _ = solve_mixed(MixedProblem(mixed_part, g1 + g2, zero))
    assert w1p_norm(u12 - (u1 + u2), 2) <= 1e-9


def test_mixed_enforces_weak_residual(square, mixed_part, monkeypatch):
    g = ScalarField.from_function(square, lambda x, y: np.sin(4.0 * x * y))
    problem = MixedProblem(
        partition=mixed_part, g=g, f=ScalarField.constant(square, 0.0)
    )
    monkeypatch.setattr(laplace, "_DEFAULT_RESIDUAL_TOL", 1e-18)
    with pytest.raises(SolverError, match="1.0e-18"):
        solve_mixed(problem)


def test_a_mesh_without_free_vertices_returns_the_dirichlet_data():
    mesh = build_unit_square(1)
    part = partition_by_tags(mesh, dirichlet=("left", "right", "bottom", "top"))
    f = ScalarField.from_function(mesh, lambda x, y: x + 2.0 * y)
    u, info = solve_mixed(MixedProblem(part, ScalarField.constant(mesh, 1.0), f))
    assert np.array_equal(u.values, f.values)
    assert info == {"iterations": 0, "residual": 0.0, "defect": None}


def test_discrete_maximum_principle(square):
    # right-angled elements: the stiffness matrix is an M-matrix, so a
    # harmonic field attains its extremes on the boundary
    part = partition_by_tags(square, dirichlet=("left", "right", "bottom", "top"))
    f = ScalarField.from_function(square, lambda x, y: np.sin(5.0 * x) + np.cos(3.0 * y))
    u, _ = solve_mixed(MixedProblem(part, ScalarField.constant(square, 0.0), f))
    bdry = np.unique(square.boundary_edges)
    interior = np.setdiff1d(np.arange(square.num_vertices), bdry)
    assert u.values[interior].max() <= f.values[bdry].max() + 1e-12
    assert u.values[interior].min() >= f.values[bdry].min() - 1e-12


def test_mixed_requires_dirichlet_edges(square, neumann_part):
    zero = ScalarField.constant(square, 0.0)
    with pytest.raises(PartitionError):
        MixedProblem(neumann_part, zero, zero)


def test_mixed_rejects_foreign_mesh_data(square, mixed_part):
    other = build_unit_square(4)
    with pytest.raises(FieldError):
        MixedProblem(
            mixed_part,
            ScalarField.constant(other, 0.0),
            ScalarField.constant(square, 0.0),
        )


# -- pure-Neumann problems -------------------------------------------------------


def test_neumann_recovers_affine_up_to_constant(square, neumann_part):
    theta = flux_trace_from_function(
        neumann_part, "boundary", lambda x, y, nx, ny: nx
    )
    problem = NeumannProblem(
        partition=neumann_part, g=ScalarField.constant(square, 0.0), theta=theta
    )
    u, info = solve_neumann(problem)
    drift = u.values - square.vertices[:, 0]
    assert np.ptp(drift) <= 1e-9
    assert abs(info["defect"]) <= 1e-12
    one = ScalarField.constant(square, 1.0)
    assert abs(scalar_inner(u, one)) <= 1e-10


def test_neumann_rejects_incompatible_data(square, neumann_part):
    theta = flux_trace_from_function(
        neumann_part, "boundary", lambda x, y, nx, ny: 0.0
    )
    problem = NeumannProblem(
        partition=neumann_part, g=ScalarField.constant(square, 1.0), theta=theta
    )
    with pytest.raises(CompatibilityError) as err:
        solve_neumann(problem)
    assert err.value.defect == pytest.approx(1.0, abs=1e-10)


def test_compatibility_defect_value(square, neumann_part):
    theta = flux_trace_from_function(
        neumann_part, "boundary", lambda x, y, nx, ny: 0.0
    )
    g = ScalarField.constant(square, 1.0)
    assert compatibility_defect(g, theta) == pytest.approx(1.0, abs=1e-12)


def test_neumann_gauges_differ_by_a_constant(square, neumann_part):
    theta = flux_trace_from_function(
        neumann_part, "boundary", lambda x, y, nx, ny: nx - ny
    )
    problem = NeumannProblem(
        partition=neumann_part, g=ScalarField.constant(square, 0.0), theta=theta
    )
    u_mean, _ = solve_neumann(problem, gauge="mean")
    u_vertex, _ = solve_neumann(problem, gauge="vertex")
    assert u_vertex.values[0] == 0.0
    assert np.ptp(u_mean.values - u_vertex.values) <= 1e-9


def test_neumann_unknown_gauge(square, neumann_part):
    theta = flux_trace_from_function(
        neumann_part, "boundary", lambda x, y, nx, ny: 0.0
    )
    problem = NeumannProblem(
        partition=neumann_part, g=ScalarField.constant(square, 0.0), theta=theta
    )
    with pytest.raises(ValueError, match="gauge"):
        solve_neumann(problem, gauge="median")
    # the gauge is checked before the data: incompatible data (a unit
    # load against zero flux) still reports the gauge
    incompatible = NeumannProblem(neumann_part, ScalarField.constant(square, 1.0), theta)
    with pytest.raises(ValueError, match="unknown gauge") as err:
        solve_neumann(incompatible, gauge="median")
    assert not isinstance(err.value, CompatibilityError)


def test_weak_residual_flags_perturbations(square, mixed_part):
    g = ScalarField.constant(square, 1.0)
    problem = MixedProblem(mixed_part, g, ScalarField.constant(square, 0.0))
    u, _ = solve_mixed(problem)
    # the right-hand side <theta, trace hat_i> - <g, hat_i>, here with theta = 0
    K, b = stiffness_matrix(square), -(mass_matrix(square) @ g.values)
    assert laplace._weak_residual(K, b, mixed_part, u, g) <= 1e-10
    bad = ScalarField(square, u.values + 1e-3 * np.sin(np.arange(square.num_vertices)))
    assert laplace._weak_residual(K, b, mixed_part, bad, g) > 1e-6


def test_laplace_solves_assemble_no_mass_matrix(square, mixed_part, neumann_part, monkeypatch):
    calls, assemble = [], fem.mass_matrix
    monkeypatch.setattr(fem, "mass_matrix", lambda mesh: calls.append(mesh) or assemble(mesh))
    g = ScalarField.from_function(square, lambda x, y: np.sin(3.0 * x) + y)
    theta = flux_trace_from_function(mixed_part, "neumann", lambda x, y, nx, ny: nx * x + ny)
    f = ScalarField.from_function(square, lambda x, y: x * y)
    solve_mixed(MixedProblem(mixed_part, g, f, theta))
    # a load of zero mean (the square has unit area) balances zero flux
    one = ScalarField.constant(square, 1.0)
    no_flux = flux_trace_from_function(neumann_part, "boundary", lambda x, y, nx, ny: 0.0)
    solve_neumann(NeumannProblem(neumann_part, g - scalar_inner(g, one) * one, no_flux))
    assert calls == []


# -- multigrid-preconditioned solves ----------------------------------------------


_CHAINS = {
    "square": (lambda: build_unit_square(6), ("left", "right"), ("bottom", "top")),
    "annulus": (lambda: build_annulus(0.3, 1.0, 4, 16), ("inner",), ("outer",)),
    "cusp": (lambda: build_cusp(3.0, 4), ("right",), ("lower", "upper")),
}


def _chain_mesh(name, levels):
    build, dirichlet, neumann = _CHAINS[name]
    mesh = build()
    for _ in range(levels):
        mesh = refine(mesh)
    return mesh, partition_by_tags(mesh, dirichlet=dirichlet, neumann=neumann)


@pytest.fixture()
def multigrid_only(monkeypatch):
    """A band budget of 0 bytes: every system takes MG-PCG."""
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)


def _free_set(mesh, part, rng, extra_constraints):
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[part.region_vertices("dirichlet")] = False
    if extra_constraints:
        mask[rng.choice(mesh.num_vertices, size=mesh.num_vertices // 10,
                        replace=False)] = False
    return np.nonzero(mask)[0]


@pytest.mark.parametrize("extra_constraints", [False, True],
                         ids=["tag_free_set", "random_free_set"])
@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_multigrid_cg_matches_superlu(name, extra_constraints, multigrid_only):
    mesh, part = _chain_mesh(name, 2)
    rng = np.random.default_rng(4)
    free = _free_set(mesh, part, rng, extra_constraints)
    K = stiffness_matrix(mesh)
    rhs = rng.standard_normal(len(free))
    x, iterations = laplace._FreeBlockSolver(mesh, free, 1e-12).system()(rhs)
    ref = splu(K.tocsc()[:, free][free].tocsc()).solve(rhs)
    assert iterations > 1
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def _iterations(mesh, part):
    g = ScalarField.from_function(mesh, lambda x, y: np.sin(4.0 * x * y))
    f = ScalarField.from_function(mesh, lambda x, y: x * x - y)
    _, info = solve_mixed(MixedProblem(part, g, f))
    return info["iterations"]


def test_multigrid_iterations_stay_flat_under_refinement(multigrid_only):
    mesh = build_unit_square(4)
    counts = []
    for _ in range(5):
        mesh = refine(mesh)
        part = partition_by_tags(mesh, dirichlet=("left", "right"),
                                 neumann=("bottom", "top"))
        counts.append(_iterations(mesh, part))
    assert max(counts) <= 25
    assert max(counts) <= 1.5 * counts[0]


def test_unrefined_mesh_is_solved_by_the_direct_root(square, mixed_part, multigrid_only):
    assert _iterations(square, mixed_part) <= 2


def test_chain_with_an_empty_coarse_level(multigrid_only):
    # every vertex of the one-cell square lies on the Dirichlet boundary,
    # so only the refined mesh has free vertices
    mesh = refine(build_unit_square(1))
    part = partition_by_tags(mesh, dirichlet=("left", "right", "bottom", "top"))
    assert _iterations(mesh, part) <= 2


def test_refined_cusp_solves_through_the_one_cg_entry(monkeypatch, multigrid_only):
    mesh, part = _chain_mesh("cusp", 3)
    calls = []
    cg = laplace.conjugate_gradient
    monkeypatch.setattr(laplace, "conjugate_gradient",
                        lambda *a, **k: calls.append(1) or cg(*a, **k))
    assert _iterations(mesh, part) > 0  # no SolverError breakdown
    assert len(calls) == 1


def test_vertex_gauge_takes_the_multigrid_path(multigrid_only):
    mesh = refine(refine(build_unit_square(4)))
    part = partition_by_tags(mesh, neumann=("left", "right", "bottom", "top"))
    theta = flux_trace_from_function(part, "boundary", lambda x, y, nx, ny: nx * y + ny * x)
    g = ScalarField.constant(mesh, 0.0)
    problem = NeumannProblem(part, g, theta)
    u_vertex, info = solve_neumann(problem, gauge="vertex")
    u_mean, _ = solve_neumann(problem, gauge="mean")
    assert 0 < info["iterations"] <= 25
    shift = u_vertex.values - u_mean.values
    assert np.ptp(shift) <= 1e-9


# -- the one free-block solver ------------------------------------------------------


def _stiffness_block(mesh, part):
    free = np.setdiff1d(np.arange(mesh.num_vertices), part.region_vertices("dirichlet"))
    return stiffness_matrix(mesh).tocsc()[:, free][free].tocsr()


def test_band_rule_reads_the_block_pattern_alone(monkeypatch):
    # The square n = 64 refined twice, Dirichlet left and right, needs a
    # 128 MiB band; the cusp k = 3, n = 6 refined 4 times, Dirichlet on
    # the right end, 56.6 MiB.  Nothing is allocated to decide.
    square = refine(refine(build_unit_square(64)))
    part = partition_by_tags(square, dirichlet=("left", "right"), neumann=("bottom", "top"))
    assert laplace._band_order(_stiffness_block(square, part)) is None
    cusp = build_cusp(3.0, 6)
    for _ in range(4):
        cusp = refine(cusp)
    part = partition_by_tags(cusp, dirichlet=("right",), neumann=("lower", "upper"))
    K_ff = _stiffness_block(cusp, part)
    perm, rank, bandwidth = laplace._band_order(K_ff)
    assert np.array_equal(rank[perm], np.arange(K_ff.shape[0]))
    assert (bandwidth, K_ff.shape[0]) == (130, 56608)
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)
    assert laplace._band_order(K_ff) is None


def _smooth_hessian_entries(mesh, gram, p):
    from singfem import plaplace

    values = np.sin(3.0 * mesh.vertices[:, 0] * mesh.vertices[:, 1]) + mesh.vertices[:, 1]
    G = fem.gradient_operator(mesh)
    _, w, _, g, m = plaplace._energy_gradient(mesh, G, values, p, 0.1)
    return fem._element_entries(mesh, gram, w, g, (p - 2.0) * w / m)


@pytest.mark.parametrize("hessian", [False, True], ids=["laplace", "p4_hessian"])
@pytest.mark.parametrize("name", sorted(_CHAINS))
def test_band_and_multigrid_paths_agree(name, hessian, monkeypatch):
    mesh, part = _chain_mesh(name, 2)
    rng = np.random.default_rng(6)
    free = _free_set(mesh, part, rng, False)
    rhs = rng.standard_normal(len(free))
    band = laplace._FreeBlockSolver(mesh, free, 1e-14)
    entries = _smooth_hessian_entries(mesh, band.gram, 4.0) if hessian else None
    x_band, band_iterations = band.system(entries)(rhs)
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)
    multigrid = laplace._FreeBlockSolver(mesh, free, 1e-14)
    assert band.ab is not None and multigrid.ab is None
    x_mg, mg_iterations = multigrid.system(entries)(rhs)
    assert band_iterations == 0 and mg_iterations > 1
    assert np.linalg.norm(x_mg - x_band) <= 1e-10 * np.linalg.norm(x_band)


def test_a_multigrid_system_builds_no_band_layout(multigrid_only):
    mesh, part = _chain_mesh("square", 2)
    free = np.setdiff1d(np.arange(mesh.num_vertices), part.region_vertices("dirichlet"))
    solver = laplace._FreeBlockSolver(mesh, free, 1e-12)
    solver.system()(np.ones(len(free)))
    assert solver.ab is None
    assert not {"gram", "slot", "pairs", "perm"} & set(vars(solver))


def test_cholesky_breakdown_in_a_mixed_solve_falls_to_multigrid(mixed_part, monkeypatch):
    mesh = refine(mixed_part.mesh)
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    g = ScalarField.from_function(mesh, lambda x, y: np.sin(4.0 * x * y))
    f = ScalarField.from_function(mesh, lambda x, y: x * x - y)
    u_ref, info_ref = solve_mixed(MixedProblem(part, g, f))

    def breakdown(*args, **kwargs):
        raise laplace.LinAlgError("forced non-positive pivot")

    monkeypatch.setattr(laplace, "cholesky_banded", breakdown)
    u, info = solve_mixed(MixedProblem(part, g, f))
    assert info_ref["iterations"] == 0 and info["iterations"] > 1
    assert info["residual"] <= 1e-10
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-10 * np.max(np.abs(u_ref.values))


def _count_solvers(monkeypatch):
    builds, init = [], laplace._FreeBlockSolver.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(laplace._FreeBlockSolver, "__init__", counted)
    return builds


def test_mixed_and_neumann_solves_build_one_solver(mixed_part, neumann_part, monkeypatch):
    builds = _count_solvers(monkeypatch)
    mesh = mixed_part.mesh
    g = ScalarField.constant(mesh, 0.0)
    solve_mixed(MixedProblem(mixed_part, g, ScalarField.from_function(mesh, lambda x, y: x)))
    assert len(builds) == 1
    theta = flux_trace_from_function(neumann_part, "boundary",
                                     lambda x, y, nx, ny: nx * y + ny * x)
    solve_neumann(NeumannProblem(neumann_part, g, theta))
    assert len(builds) == 2


def test_mean_gauge_matches_a_pinned_superlu_solve():
    mesh = refine(refine(build_unit_square(4)))
    part = partition_by_tags(mesh, neumann=("left", "right", "bottom", "top"))
    theta = flux_trace_from_function(part, "boundary", lambda x, y, nx, ny: nx * y + ny * x)
    g = ScalarField.constant(mesh, 0.0)
    u_mean, _ = solve_neumann(NeumannProblem(part, g, theta), gauge="mean")

    K = stiffness_matrix(mesh).tocsc()
    b = boundary_functional(part, theta) - mass_matrix(mesh) @ g.values
    ref = np.zeros(mesh.num_vertices)
    ref[1:] = splu(K[1:, 1:].tocsc()).solve(b[1:])
    ones = ScalarField.constant(mesh, 1.0)
    ref -= scalar_inner(ScalarField(mesh, ref), ones) / scalar_inner(ones, ones)
    assert np.linalg.norm(u_mean.values - ref) <= 1e-9 * np.linalg.norm(ref)
