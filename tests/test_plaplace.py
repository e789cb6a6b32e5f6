import json

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import splu

from singfem import (
    OptimalityReport,
    PLaplaceError,
    PlapProblem,
    ScalarField,
    VectorField,
    build_annulus,
    build_cusp,
    build_unit_square,
    lp_norm,
    minimality_certificate,
    p_energy,
    p_stationarity,
    partition_by_tags,
    perturbation_margin,
    sharp_p,
    solve_mixed,
    solve_p_laplace,
    vector_inner,
    w1p_norm,
)
from singfem import MixedProblem, fem, plaplace
from singfem.fem import FieldError


@pytest.fixture()
def square():
    return build_unit_square(4)


@pytest.fixture()
def side_constraints(square):
    part = partition_by_tags(square, dirichlet=("left", "right"), neumann=("bottom", "top"))
    return frozenset(int(i) for i in part.region_vertices("dirichlet"))


def _random_beta(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return VectorField(mesh, rng.standard_normal((mesh.num_triangles, 2)))


# -- duality map -----------------------------------------------------------------


def test_sharp_two_is_identity_copy(square):
    beta = _random_beta(square)
    out = sharp_p(beta, 2.0)
    assert np.array_equal(out.values, beta.values)
    assert out.values is not beta.values


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 10.0])
def test_sharp_p_swaps_norms_crosswise(square, p):
    beta = _random_beta(square, seed=7)
    out = sharp_p(beta, p)
    q = p / (p - 1.0)
    assert lp_norm(out, q) == pytest.approx(lp_norm(beta, p), rel=1e-12)
    # pairing against the original recovers the squared p-norm
    assert vector_inner(beta, out) == pytest.approx(lp_norm(beta, p) ** 2, rel=1e-12)


def test_sharp_p_zero_field_and_bad_exponent(square):
    zero = VectorField(square, np.zeros((square.num_triangles, 2)))
    assert not sharp_p(zero, 3.0).values.any()
    beta = _random_beta(square)
    with pytest.raises(ValueError):
        sharp_p(beta, 1.0)
    with pytest.raises(ValueError):
        sharp_p(beta, float("inf"))


# -- problem validation ----------------------------------------------------------


def test_problem_validation(square, side_constraints):
    f = ScalarField.from_function(square, lambda x, y: x)
    with pytest.raises(ValueError, match="non-empty"):
        PlapProblem(square, frozenset(), f, 3.0)
    with pytest.raises(ValueError, match="out of range"):
        PlapProblem(square, frozenset({square.num_vertices}), f, 3.0)
    with pytest.raises(ValueError, match="p must lie"):
        PlapProblem(square, side_constraints, f, 1.0)
    with pytest.raises(ValueError, match="eps_final"):
        PlapProblem(square, side_constraints, f, 3.0, eps_final=-1.0)
    other = build_unit_square(2)
    with pytest.raises(FieldError):
        PlapProblem(square, side_constraints, ScalarField.constant(other, 0.0), 3.0)


# -- solves ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
def test_affine_data_reproduced(square, side_constraints, p):
    f = ScalarField.from_function(square, lambda x, y: x)
    u, report = solve_p_laplace(PlapProblem(square, side_constraints, f, p))
    assert np.max(np.abs(u.values - square.vertices[:, 0])) <= 1e-6
    assert report.stationarity <= 1e-8
    assert report.energy == pytest.approx(1.0, rel=1e-6)
    assert json.dumps(report.iterations)  # the trace must be JSON-safe


def test_p2_matches_linear_solver(square, side_constraints):
    part = partition_by_tags(square, dirichlet=("left", "right"), neumann=("bottom", "top"))
    f = ScalarField.from_function(square, lambda x, y: np.sin(2.0 * y) * x)
    u_plap, _ = solve_p_laplace(PlapProblem(square, side_constraints, f, 2.0))
    u_lin, _ = solve_mixed(MixedProblem(part, ScalarField.constant(square, 0.0), f))
    assert w1p_norm(u_plap - u_lin, 2) <= 1e-9


def test_single_free_node_matches_brute_force():
    mesh = build_unit_square(2)
    center = int(
        np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5, mesh.vertices[:, 1] - 0.5))
    )
    constraints = frozenset(range(mesh.num_vertices)) - {center}
    f = ScalarField.from_function(mesh, lambda x, y: x * x + 0.5 * y)
    p = 4.0
    u, _ = solve_p_laplace(PlapProblem(mesh, constraints, f, p))

    def energy_of(v):
        vals = f.values.copy()
        vals[center] = v
        return p_energy(ScalarField(mesh, vals), p)

    ref = minimize_scalar(energy_of, bounds=(-5.0, 5.0), method="bounded",
                          options={"xatol": 1e-13})
    assert abs(u.values[center] - ref.x) <= 1e-8


def test_fully_constrained_problem_is_returned_as_is(square):
    f = ScalarField.from_function(square, lambda x, y: x * y)
    all_vertices = frozenset(range(square.num_vertices))
    u, report = solve_p_laplace(PlapProblem(square, all_vertices, f, 3.0))
    assert np.array_equal(u.values, f.values)
    assert report.stationarity == 0.0


def test_seed_does_not_change_the_minimizer(square, side_constraints):
    f = ScalarField.from_function(square, lambda x, y: x + 0.3 * np.sin(3.0 * y))
    u0, _ = solve_p_laplace(PlapProblem(square, side_constraints, f, 4.0, seed=0))
    u1, _ = solve_p_laplace(PlapProblem(square, side_constraints, f, 4.0, seed=123))
    assert np.max(np.abs(u0.values - u1.values)) <= 1e-6


def test_unreachable_tolerance_carries_best_iterate(square, side_constraints):
    f = ScalarField.from_function(square, lambda x, y: x + 0.5 * y * y)
    problem = PlapProblem(
        square, side_constraints, f, 3.0, eps_final=1.0, tol=1e-10
    )
    # a huge frozen regularization leaves an O(1) exact-stationarity gap
    with pytest.raises(PLaplaceError) as err:
        solve_p_laplace(problem)
    assert isinstance(err.value.best_field, ScalarField)
    assert err.value.stationarity > 1e-10


# -- optimality machinery --------------------------------------------------------


def test_perturbation_margin_zero_direction_is_exact_zero(square):
    u = ScalarField.from_function(square, lambda x, y: x * y)
    zero = ScalarField.constant(square, 0.0)
    assert perturbation_margin(u, zero, 3.0, 1e-2) == 0.0


def test_perturbation_margin_accepts_precomputed_energy(square):
    u = ScalarField.from_function(square, lambda x, y: x * x + y)
    d = ScalarField.from_function(square, lambda x, y: np.sin(3.0 * x) * y)
    e0 = p_energy(u, 3.0)
    assert perturbation_margin(u, d, 3.0, 1e-2, e0) == perturbation_margin(u, d, 3.0, 1e-2)


def test_certificate_accepts_minimizer_and_rejects_perturbation(
    square, side_constraints
):
    f = ScalarField.from_function(square, lambda x, y: x + 0.2 * y * y)
    u, _ = solve_p_laplace(PlapProblem(square, side_constraints, f, 3.0))
    good = minimality_certificate(u, 3.0, side_constraints, trials=60, seed=5)
    assert good.certificate["passed"]
    assert good.certificate["violations"] == 0
    assert good.certificate["worst_margin"] >= -1e-10 * good.energy

    bumped = u.values.copy()
    free = np.setdiff1d(np.arange(square.num_vertices), sorted(side_constraints))
    bumped[free[len(free) // 2]] += 0.5
    bad_field = ScalarField(square, bumped)
    assert p_stationarity(bad_field, 3.0, side_constraints) > 1e-8
    bad = minimality_certificate(bad_field, 3.0, side_constraints, trials=60, seed=5)
    assert not bad.certificate["passed"]
    assert bad.certificate["violations"] > 0


def test_certificate_on_flat_field(square, side_constraints):
    u = ScalarField.constant(square, 2.0)
    report = minimality_certificate(u, 3.0, side_constraints, trials=10, seed=0)
    assert report.energy == 0.0
    assert report.certificate["passed"]


def test_report_rejects_negative_energy():
    with pytest.raises(ValueError):
        OptimalityReport(energy=-1.0)


# -- banded IRLS factor ------------------------------------------------------------


def _dense_from_band(ab):
    """Symmetric matrix held by a LAPACK lower band ab[i - j, j] = A[i, j]."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for k in range(ab.shape[0]):
        j = np.arange(n - k)
        dense[j + k, j] = ab[k, : n - k]
    return dense + np.tril(dense, -1).T


@pytest.mark.parametrize("build", [
    lambda: build_unit_square(6),
    lambda: build_annulus(0.3, 1.0, 4, 16),
    lambda: build_cusp(3.0, 4),
])
def test_band_assembly_matches_the_stiffness_block(build):
    mesh = build()
    rng = np.random.default_rng(11)
    free = np.sort(rng.choice(mesh.num_vertices, size=2 * mesh.num_vertices // 3,
                              replace=False))
    w = rng.uniform(0.1, 10.0, mesh.num_triangles)
    system = plaplace._BandedStiffness(mesh, free)
    ab = system.band(w)
    assert ab.flags.f_contiguous
    assert ab.shape == (system.bandwidth + 1, len(free))
    # entries past the matrix's last column stay zero
    assert all(not ab[k, len(free) - k:].any() for k in range(1, ab.shape[0]))
    ref = fem.stiffness_matrix(mesh, w).toarray()[np.ix_(free, free)]
    ref = ref[np.ix_(system.perm, system.perm)]
    np.testing.assert_allclose(_dense_from_band(ab), ref, rtol=1e-13,
                               atol=1e-13 * np.abs(ref).max())


def test_band_solve_matches_superlu():
    mesh = build_unit_square(12)
    rng = np.random.default_rng(5)
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    free = np.setdiff1d(np.arange(mesh.num_vertices), part.region_vertices("dirichlet"))
    w = rng.uniform(0.5, 2.0, mesh.num_triangles)
    rhs = rng.standard_normal(len(free))
    system = plaplace._BandedStiffness(mesh, free)
    assert system.bandwidth < len(free) // 4
    K_ff = fem.stiffness_matrix(mesh, w).tocsc()[free][:, free]
    ref = splu(K_ff.tocsc()).solve(rhs)
    np.testing.assert_allclose(system.solve(w, rhs), ref, rtol=1e-10,
                               atol=1e-12 * np.abs(ref).max())


def test_band_with_a_single_free_vertex():
    mesh = build_unit_square(2)
    center = int(np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5, mesh.vertices[:, 1] - 0.5)))
    w = np.linspace(1.0, 2.0, mesh.num_triangles)
    system = plaplace._BandedStiffness(mesh, np.array([center]))
    assert system.bandwidth == 0
    k_cc = fem.stiffness_matrix(mesh, w)[center, center]
    assert system.solve(w, np.array([3.0]))[0] == pytest.approx(3.0 / k_cc, rel=1e-14)


def _irls_problem(square, side_constraints):
    f = ScalarField.from_function(square, lambda x, y: x + 0.3 * np.sin(3.0 * y))
    return PlapProblem(square, side_constraints, f, 4.0)


def test_solve_assembles_once_and_passes_the_gradient_once_per_step(
        square, side_constraints, monkeypatch):
    calls = {"stiffness": 0, "grad_test": 0}
    assemble, grad_test = fem.stiffness_matrix, fem.grad_test_vector

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fem, "stiffness_matrix", counted("stiffness", assemble))
    monkeypatch.setattr(fem, "grad_test_vector", counted("grad_test", grad_test))
    _, report = solve_p_laplace(_irls_problem(square, side_constraints))
    stages = [s for s in report.iterations if s["stage"] != "warm_start"]
    assert calls["stiffness"] == 1  # the p = 2 warm start only
    # one gradient pass per IRLS iteration and per stage exit, plus the
    # final exact stationarity
    assert calls["grad_test"] == sum(s["iterations"] + 1 for s in stages) + 1


def test_stationarity_matches_its_direct_formula(square, side_constraints):
    u = ScalarField.from_function(square, lambda x, y: x + 0.3 * np.sin(3.0 * y))
    p = 3.5
    free = np.ones(square.num_vertices, dtype=bool)
    free[sorted(side_constraints)] = False
    g = fem.gradient(u).values
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2
    normp = float(np.sum(square.areas * mag2 ** (p / 2.0))) ** (1.0 / p)
    s = fem.grad_test_vector(square, mag2[:, None] ** ((p - 2.0) / 2.0) * g)
    s = s / normp ** (p - 2.0)
    ref = np.max(np.abs(s[free]) / fem.hat_gradient_p_norms(square, p)[free])
    assert p_stationarity(u, p, side_constraints) == ref


def test_cholesky_breakdown_is_rescued_by_superlu(square, side_constraints,
                                                  monkeypatch):
    problem = _irls_problem(square, side_constraints)
    u_ref, _ = solve_p_laplace(problem)

    def breakdown(*args, **kwargs):
        raise LinAlgError("forced non-positive pivot")

    factor, calls = plaplace.splu, []
    monkeypatch.setattr(plaplace, "cholesky_banded", breakdown)
    monkeypatch.setattr(plaplace, "splu", lambda A: calls.append(1) or factor(A))
    u, report = solve_p_laplace(problem)
    assert calls
    assert report.stationarity <= problem.tol
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-10


def test_double_factorization_failure_carries_the_iterate(square, side_constraints,
                                                          monkeypatch):
    def breakdown(*args, **kwargs):
        raise LinAlgError("forced non-positive pivot")

    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(plaplace, "cholesky_banded", breakdown)
    monkeypatch.setattr(plaplace, "splu", singular)
    with pytest.raises(PLaplaceError, match="singular") as err:
        solve_p_laplace(_irls_problem(square, side_constraints))
    assert isinstance(err.value.best_field, ScalarField)


def test_overflowing_exponent_is_an_error_not_a_success():
    mesh = build_unit_square(8)
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
    f = ScalarField.from_function(mesh, lambda x, y: x * y)
    with pytest.raises(PLaplaceError, match="overflow") as err:
        solve_p_laplace(PlapProblem(mesh, constraint, f, 1000.0))
    assert isinstance(err.value.best_field, ScalarField)
    with pytest.raises(ValueError, match="overflow"):
        p_stationarity(f, 1000.0, constraint)
    steep = ScalarField.from_function(mesh, lambda x, y: 1e6 * x)
    with pytest.raises(ValueError, match="energy overflows"):
        p_stationarity(steep, 100.0, constraint)


def test_band_too_wide_to_keep_goes_to_superlu(square, side_constraints, monkeypatch):
    problem = _irls_problem(square, side_constraints)
    u_ref, ref = solve_p_laplace(problem)
    factor, calls = plaplace.splu, []
    monkeypatch.setattr(plaplace._BandedStiffness, "MAX_FILL", 0)
    monkeypatch.setattr(plaplace, "splu", lambda A: calls.append(1) or factor(A))
    u, report = solve_p_laplace(problem)
    steps = sum(s["iterations"] for s in ref.iterations if s["stage"] != "warm_start")
    assert len(calls) >= steps > 0
    assert report.stationarity <= problem.tol
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-10


def test_band_allocation_failure_leaves_the_band_unset(square, side_constraints,
                                                       monkeypatch):
    free = np.setdiff1d(np.arange(square.num_vertices), sorted(side_constraints))

    zeros = np.zeros

    def no_memory_for_the_band(*args, order="C", **kwargs):
        if order == "F":
            raise MemoryError
        return zeros(*args, order=order, **kwargs)

    monkeypatch.setattr(np, "zeros", no_memory_for_the_band)
    system = plaplace._BandedStiffness(square, free)
    monkeypatch.undo()
    assert system.ab is None and system.bandwidth > 0


def test_exact_stationarity_is_finite_on_flat_elements_below_p_2(square,
                                                                 side_constraints):
    u = ScalarField.from_function(square, lambda x, y: np.maximum(x - 0.5, 0.0))
    p = 1.5
    g = fem.gradient(u).values
    mag2 = g[:, 0] ** 2 + g[:, 1] ** 2
    flat = mag2 == 0.0
    assert flat.any() and not flat.all()
    # w |grad u| -> 0 on the flat elements, so only the sloped ones count
    w = np.zeros_like(mag2)
    w[~flat] = mag2[~flat] ** ((p - 2.0) / 2.0)
    normp = float(np.sum(square.areas * mag2 ** (p / 2.0))) ** (1.0 / p)
    s = fem.grad_test_vector(square, w[:, None] * g) / normp ** (p - 2.0)
    free = np.ones(square.num_vertices, dtype=bool)
    free[sorted(side_constraints)] = False
    ref = np.max(np.abs(s[free]) / fem.hat_gradient_p_norms(square, p)[free])
    with np.errstate(all="raise"):
        stat = p_stationarity(u, p, side_constraints)
    assert np.isfinite(stat) and stat == pytest.approx(ref, rel=1e-14)


def test_nan_stationarity_is_not_a_success(square, side_constraints, monkeypatch):
    monkeypatch.setattr(plaplace, "p_stationarity", lambda *args: float("nan"))
    with pytest.raises(PLaplaceError, match="nan") as err:
        solve_p_laplace(_irls_problem(square, side_constraints))
    assert isinstance(err.value.best_field, ScalarField)


def test_warm_start_is_a_band_solve_with_no_cg_call(square, side_constraints,
                                                    monkeypatch):
    from singfem import laplace

    def no_cg(*args, **kwargs):
        raise AssertionError("conjugate_gradient called")

    monkeypatch.setattr(laplace, "conjugate_gradient", no_cg)
    monkeypatch.setattr(plaplace, "conjugate_gradient", no_cg)
    problem = _irls_problem(square, side_constraints)
    u, report = solve_p_laplace(problem)
    assert report.stationarity <= problem.tol
    assert report.iterations[0] == {"stage": "warm_start", "p": 2.0, "iterations": 0}
    # the seed no longer enters the solve
    problem.seed = 123
    assert np.array_equal(solve_p_laplace(problem)[0].values, u.values)
