import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from singfem import (
    OptimalityReport,
    PLaplaceError,
    PlapProblem,
    ScalarField,
    VectorField,
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
from singfem import MixedProblem
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
    with pytest.raises(ValueError, match="step factor"):
        PlapProblem(square, side_constraints, f, 3.0, p_step=2.0)
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
