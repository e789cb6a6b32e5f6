import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from singfem import MixedProblem, fem, laplace, plaplace, refine
from singfem.fem import FieldError
from singfem.geometry import Mesh


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


# Small unit squares, annuli and cusps.
SMALL_MESHES = st.one_of(
    st.builds(build_unit_square, st.integers(1, 6)),
    st.builds(lambda r_in, n_radial, n_angular: build_annulus(r_in, 1.0, n_radial, n_angular),
              st.floats(0.1, 0.6), st.integers(1, 4), st.integers(3, 16)),
    st.builds(build_cusp, st.floats(1.0, 4.0), st.integers(2, 5)),
)
PROPERTIES = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@PROPERTIES
@given(mesh=SMALL_MESHES, p=st.floats(1.1, 16.0), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.3]))
def test_sharp_p_duality_on_random_fields(mesh, p, seed, zero_share):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((mesh.num_triangles, 2))
    values[rng.random(mesh.num_triangles) < zero_share] = 0.0  # zero-magnitude elements
    beta = VectorField(mesh, values)
    out = sharp_p(beta, p)
    norm = lp_norm(beta, p)
    assert lp_norm(out, p / (p - 1.0)) == pytest.approx(norm, rel=1e-12)
    assert vector_inner(beta, out) == pytest.approx(norm**2, rel=1e-12)


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


def test_certificate_takes_one_gradient_per_direction(square, side_constraints,
                                                     monkeypatch):
    u = ScalarField.from_function(square, lambda x, y: x + 0.2 * y * y)
    products, operators, build = [], [], fem.gradient_operator

    class Counted:
        """The gradient operator, counting its products."""

        def __init__(self, mesh):
            self.G = build(mesh)
            operators.append(self)

        def __matmul__(self, values):
            products.append(1)
            return self.G @ values

    monkeypatch.setattr(fem, "gradient_operator", Counted)
    monkeypatch.setattr(fem, "gradient", lambda f: pytest.fail("einsum gradient taken"))
    report = minimality_certificate(u, 3.0, side_constraints, trials=10, seed=5)
    assert report.certificate["trials"] == 10
    assert len(operators) == 1
    assert len(products) == 1 + 10  # u once, then each direction once


def _certificate_by_trials(u, p, constraint_vertices, trials=40, seed=0):
    """Reference certificate: (passed, worst_margin, violations) from one
    fem.gradient per direction and one lp_norm of a VectorField per margin."""
    mesh = u.mesh
    fixed = np.asarray(sorted(constraint_vertices), dtype=np.int64)
    rng = np.random.default_rng(seed)
    gu = fem.gradient(u)
    e0 = lp_norm(gu, p)
    scale = e0 if e0 > 0.0 else 1.0
    worst, violations = float("inf"), 0
    for _ in range(trials):
        direction = rng.standard_normal(mesh.num_vertices)
        direction[fixed] = 0.0
        gd = fem.gradient(ScalarField(mesh, direction))
        dnorm = lp_norm(gd, p)
        if dnorm == 0.0:
            continue
        gd = VectorField(mesh, gd.values / dnorm)
        for step in (1e-3, 1e-2):
            for t in (step * scale, -step * scale):
                margin = lp_norm(VectorField(mesh, gu.values + t * gd.values), p) - e0
                worst = min(worst, margin)
                violations += margin < -1e-10 * scale
    return violations == 0, worst if worst != float("inf") else 0.0, violations


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 8.0])
def test_certificate_is_the_per_trial_reference_bit_for_bit(p):
    mesh = build_unit_square(8)
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
    f = ScalarField.from_function(mesh, lambda x, y: np.sin(3.0 * x * y) + x)
    u, _ = solve_p_laplace(PlapProblem(mesh, constraint, f, p))
    bumped = u.values.copy()
    bumped[mesh.num_vertices // 2] += 0.5
    for field in (u, ScalarField(mesh, bumped)):
        for seed in range(5):
            cert = minimality_certificate(field, p, constraint, seed=seed).certificate
            got = (cert["passed"], cert["worst_margin"], cert["violations"])
            assert got == _certificate_by_trials(field, p, constraint, seed=seed)


def test_certificate_on_flat_field(square, side_constraints):
    u = ScalarField.constant(square, 2.0)
    report = minimality_certificate(u, 3.0, side_constraints, trials=10, seed=0)
    assert report.energy == 0.0
    assert report.certificate["passed"]


def test_report_rejects_negative_energy():
    with pytest.raises(ValueError):
        OptimalityReport(energy=-1.0)


# -- banded factor -----------------------------------------------------------------


def _dense_from_band(ab):
    """Symmetric matrix held by a LAPACK lower band ab[i - j, j] = A[i, j]."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for k in range(ab.shape[0]):
        j = np.arange(n - k)
        dense[j + k, j] = ab[k, : n - k]
    return dense + np.tril(dense, -1).T


def _solver(mesh, free):
    """The free-block solver of the unit-weight stiffness on this free set."""
    return laplace._FreeBlockSolver(mesh, fem.stiffness_matrix(mesh), free, 1e-12)


MESHES = [
    lambda: build_unit_square(6),
    lambda: build_annulus(0.3, 1.0, 4, 16),
    lambda: build_cusp(3.0, 4),
]


@pytest.mark.parametrize("build", MESHES)
def test_band_assembly_matches_the_stiffness_block(build):
    mesh = build()
    rng = np.random.default_rng(11)
    free = np.sort(rng.choice(mesh.num_vertices, size=2 * mesh.num_vertices // 3,
                              replace=False))
    w = rng.uniform(0.1, 10.0, mesh.num_triangles)
    system = _solver(mesh, free)
    ab = system.band(laplace._element_entries(mesh, system.gram, w))
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
    system = _solver(mesh, free)
    assert system.bandwidth < len(free) // 4
    K_ff = fem.stiffness_matrix(mesh, w).tocsc()[free][:, free]
    ref = splu(K_ff.tocsc()).solve(rhs)
    entries = laplace._element_entries(mesh, system.gram, w)
    x, iterations = system.system(entries)(rhs)
    assert iterations == 0
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())


def test_band_with_a_single_free_vertex():
    mesh = build_unit_square(2)
    center = int(np.argmin(np.hypot(mesh.vertices[:, 0] - 0.5, mesh.vertices[:, 1] - 0.5)))
    w = np.linspace(1.0, 2.0, mesh.num_triangles)
    system = _solver(mesh, np.array([center]))
    assert system.bandwidth == 0
    k_cc = fem.stiffness_matrix(mesh, w)[center, center]
    entries = laplace._element_entries(mesh, system.gram, w)
    assert (system.system(entries)(np.array([3.0]))[0][0]
            == pytest.approx(3.0 / k_cc, rel=1e-14))


def _p4_problem(square, side_constraints):
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
    _, report = solve_p_laplace(_p4_problem(square, side_constraints))
    stages = [s for s in report.iterations if s["stage"] != "warm_start"]
    assert calls["stiffness"] == 1  # the p = 2 warm start only
    # one gradient pass per Newton step and per stage exit, plus the
    # final exact stationarity
    assert calls["grad_test"] == sum(s["iterations"] + 1 for s in stages) + 1


@pytest.mark.parametrize("build", MESHES)
def test_held_gram_entries_are_the_einsum_to_the_bit(build):
    mesh = build()
    free = np.arange(1, mesh.num_vertices)
    system = _solver(mesh, free)
    gl = mesh.grad_lambda
    i, j = fem._UPPER
    full = np.einsum("tid,tjd->tij", gl, gl)
    assert system.gram.tobytes() == full[:, i, j].tobytes()
    w = np.random.default_rng(2).uniform(0.1, 10.0, mesh.num_triangles)
    ref = full[:, i, j] * (mesh.areas * w)[:, None]
    assert laplace._element_entries(mesh, system.gram, w).tobytes() == ref.tobytes()


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("build", MESHES + [
    lambda: build_unit_square(128),
    lambda: refine(refine(build_unit_square(6))),
    lambda: refine(build_annulus(0.3, 1.0, 4, 16)),
    lambda: refine(refine(build_cusp(3.0, 4))),
])
def test_hessian_entries_are_the_full_array_formula_to_the_bit(build, p):
    mesh = build()
    gram = fem._gram_entries(mesh)
    values = np.sin(3.0 * mesh.vertices[:, 0] * mesh.vertices[:, 1]) + mesh.vertices[:, 1]
    _, w, _, g, m = plaplace._energy_gradient(mesh, fem.gradient_operator(mesh), values,
                                              p, 0.1)
    c = (p - 2.0) * w / m
    # the reference: the anisotropic term as one (nt, 6) array
    i, j = fem._UPPER
    q = np.einsum("tid,td->ti", mesh.grad_lambda, g)
    aniso = q[:, i]
    aniso *= q[:, j]
    aniso *= (mesh.areas * c)[:, None]
    ref = gram * (mesh.areas * w)[:, None]
    ref += aniso
    assert laplace._element_entries(mesh, gram, w, g, c).tobytes() == ref.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 7.3])
@pytest.mark.parametrize("build", MESHES)
def test_p_energy_is_the_newton_energy_to_the_bit(build, p):
    mesh = build()
    u = ScalarField(mesh, np.random.default_rng(4).standard_normal(mesh.num_vertices))
    energy, g, m = plaplace._energy_terms(mesh, fem.gradient_operator(mesh), u.values, p, 0.0)
    assert p_energy(u, p) == energy ** (1.0 / p)
    assert lp_norm(fem.gradient(u), float("inf")) == float(np.sqrt(m.max()))


def _count_calls(monkeypatch, module, name, calls):
    """Count module.name's calls in the Counter calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_solve_builds_the_gram_entries_once(square, side_constraints, monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, fem, "_gram_entries", calls)
    coarse, _ = solve_p_laplace(_p4_problem(square, side_constraints))
    assert calls["_gram_entries"] == 1
    fine = _side_problem(refine(square))
    solve_p_laplace(fine, coarse=coarse)  # nested: the final stage alone
    assert calls["_gram_entries"] == 2


def test_each_iterate_has_its_element_terms_computed_once(square, side_constraints,
                                                          monkeypatch):
    calls, gradient = Counter(), plaplace._energy_gradient

    def entered(*args):
        calls["_energy_gradient"] += 1
        before = calls["_grad_values"]
        out = gradient(*args)
        calls["inside"] += calls["_grad_values"] - before
        return out

    monkeypatch.setattr(plaplace, "_energy_gradient", entered)
    _count_calls(monkeypatch, plaplace, "_grad_values", calls)
    _count_calls(monkeypatch, plaplace, "_energy_terms", calls)
    u, report = solve_p_laplace(_p4_problem(square, side_constraints))
    stages = [s for s in report.iterations if s["stage"] != "warm_start"]
    # once per Newton step and per stage exit, plus the closing exact check
    assert calls["_energy_gradient"] == sum(s["iterations"] + 1 for s in stages) + 1
    # element gradients are taken only with their energy terms (at each
    # stage's entry and for each line-search trial), and every Newton step
    # reuses its iterate's: only the closing eps = 0 check takes them anew
    assert calls["_grad_values"] == calls["_energy_terms"]
    assert calls["inside"] == 1
    assert report.energy == p_energy(u, 4.0)


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


def _counted_root(monkeypatch):
    """Count the factorizations of the multigrid root.  On an unrefined
    mesh that root is the whole block, so MG-PCG is a SuperLU solve."""
    factor, calls = laplace.splu, []
    monkeypatch.setattr(laplace, "splu", lambda A: calls.append(1) or factor(A))
    return calls


def _breakdown(*args, **kwargs):
    raise LinAlgError("forced non-positive pivot")


def test_cholesky_breakdown_is_rescued_by_superlu(square, side_constraints,
                                                  monkeypatch):
    problem = _p4_problem(square, side_constraints)
    u_ref, _ = solve_p_laplace(problem)
    monkeypatch.setattr(laplace, "cholesky_banded", _breakdown)
    calls = _counted_root(monkeypatch)
    u, report = solve_p_laplace(problem)
    # the warm start and every Newton system fell to MG-PCG
    steps = sum(s["iterations"] for s in report.iterations if s["stage"] != "warm_start")
    assert len(calls) == steps + 1
    assert report.stationarity <= problem.tol
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-10


def test_cholesky_breakdown_on_a_refined_mesh_falls_to_multigrid_cg(monkeypatch):
    side = _side_problem(refine(build_unit_square(6)))
    problem = PlapProblem(side.mesh, side.constraint_vertices, side.f, 4.0)
    u_ref, _ = solve_p_laplace(problem)
    monkeypatch.setattr(laplace, "cholesky_banded", _breakdown)
    iterations, cg = [], laplace.conjugate_gradient

    def counted(*args, **kwargs):
        x, its = cg(*args, **kwargs)
        iterations.append(its)
        return x, its

    monkeypatch.setattr(laplace, "conjugate_gradient", counted)
    u, report = solve_p_laplace(problem)
    assert iterations and min(iterations) > 1
    assert report.stationarity <= problem.tol
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-10


def test_double_factorization_failure_carries_the_iterate(square, side_constraints,
                                                          monkeypatch):
    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(laplace, "cholesky_banded", _breakdown)
    monkeypatch.setattr(laplace, "splu", singular)
    with pytest.raises(PLaplaceError, match="singular") as err:
        solve_p_laplace(_p4_problem(square, side_constraints))
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
    problem = _p4_problem(square, side_constraints)
    u_ref, _ = solve_p_laplace(problem)
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)
    calls = _counted_root(monkeypatch)
    u, report = solve_p_laplace(problem)
    steps = sum(s["iterations"] for s in report.iterations if s["stage"] != "warm_start")
    assert len(calls) == steps + 1 and steps > 0
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
    system = _solver(square, free)
    monkeypatch.undo()
    assert system.ab is None and system.bandwidth > 0
    calls = _counted_root(monkeypatch)
    rhs = np.ones(len(free))
    x, _ = system.system()(rhs)
    assert calls == [1]
    np.testing.assert_allclose(system.K_ff @ x, rhs, rtol=1e-12)


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
    # the solve's closing check: the stationarity, then the energy
    monkeypatch.setattr(plaplace, "_exact_stationarity",
                        lambda *args: (float("nan"), 1.0))
    with pytest.raises(PLaplaceError, match="nan") as err:
        solve_p_laplace(_p4_problem(square, side_constraints))
    assert isinstance(err.value.best_field, ScalarField)


def test_warm_start_is_a_band_solve_with_no_cg_call(square, side_constraints,
                                                    monkeypatch):
    from singfem import laplace

    def no_cg(*args, **kwargs):
        raise AssertionError("conjugate_gradient called")

    monkeypatch.setattr(laplace, "conjugate_gradient", no_cg)
    monkeypatch.setattr(plaplace, "conjugate_gradient", no_cg)
    problem = _p4_problem(square, side_constraints)
    u, report = solve_p_laplace(problem)
    assert report.stationarity <= problem.tol
    assert report.iterations[0] == {"stage": "warm_start", "p": 2.0, "iterations": 0}
    # the seed no longer enters the solve
    problem.seed = 123
    assert np.array_equal(solve_p_laplace(problem)[0].values, u.values)


# -- Newton steps ------------------------------------------------------------------


def _random_free_set(mesh, rng):
    return np.sort(rng.choice(mesh.num_vertices, size=2 * mesh.num_vertices // 3,
                              replace=False))


def _hessian_entries(mesh, values, p, eps):
    _, w, _, g, m = plaplace._energy_gradient(mesh, fem.gradient_operator(mesh), values,
                                              p, eps)
    return laplace._element_entries(mesh, fem._gram_entries(mesh), w, g,
                                     (p - 2.0) * w / m)


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("build", MESHES)
def test_band_hessian_matches_a_central_difference_of_the_gradient(build, p):
    mesh = build()
    rng = np.random.default_rng(3)
    free = _random_free_set(mesh, rng)
    values = rng.standard_normal(mesh.num_vertices)
    eps, h = 0.1, 1e-6
    system = _solver(mesh, free)
    G = fem.gradient_operator(mesh)
    hessian = _dense_from_band(system.band(_hessian_entries(mesh, values, p, eps)))
    ref = np.empty((len(free), len(free)))
    for col, k in enumerate(free):
        up, down = values.copy(), values.copy()
        up[k] += h
        down[k] -= h
        s_up = plaplace._energy_gradient(mesh, G, up, p, eps)[2]
        s_down = plaplace._energy_gradient(mesh, G, down, p, eps)[2]
        ref[:, col] = (s_up[free] - s_down[free]) / (2.0 * h)
    ref = ref[np.ix_(system.perm, system.perm)]
    np.testing.assert_allclose(hessian, ref, rtol=1e-6, atol=1e-7 * np.abs(ref).max())


@pytest.mark.parametrize("build", MESHES)
def test_superlu_route_solves_the_band_matrix(build):
    mesh = build()
    rng = np.random.default_rng(8)
    free = _random_free_set(mesh, rng)
    entries = _hessian_entries(mesh, rng.standard_normal(mesh.num_vertices), 4.0, 0.1)
    system = _solver(mesh, free)
    band = _dense_from_band(system.band(entries))
    # the block that MG-PCG solves; its SuperLU root on these unrefined meshes
    block = system._assemble(entries).toarray()
    block = block[np.ix_(system.perm, system.perm)]
    np.testing.assert_allclose(band, block, rtol=1e-13, atol=1e-13 * np.abs(block).max())


def _probe_square():
    """Unit square n = 32, Dirichlet left/right, f = sin(3xy) + y."""
    mesh = build_unit_square(32)
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
    f = ScalarField.from_function(mesh, lambda x, y: np.sin(3 * x * y) + y)
    return mesh, constraint, f


def _cusp_level_1():
    """Cusp k = 3, n = 6, refined once, Dirichlet on the right end."""
    mesh = refine(build_cusp(3.0, 6))
    part = partition_by_tags(mesh, dirichlet=("right",), neumann=("lower", "upper"))
    constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
    return mesh, constraint, ScalarField.from_function(mesh, lambda x, y: y + 0.4 * y * y)


@pytest.mark.parametrize("build, p", [
    (_probe_square, 1.2),
    (_probe_square, 64.0),
    (_probe_square, 128.0),
    (_cusp_level_1, 32.0),
])
def test_newton_reaches_the_tolerance_far_from_p_2(build, p):
    problem = PlapProblem(*build(), p, tol=1e-8)
    u, report = solve_p_laplace(problem)
    assert report.stationarity <= 1e-8
    assert p_stationarity(u, p, problem.constraint_vertices) == report.stationarity


def test_newton_steps_at_p_4_stay_few_and_are_recorded():
    _, report = solve_p_laplace(PlapProblem(*_probe_square(), 4.0))
    assert report.iterations[0] == {"stage": "warm_start", "p": 2.0, "iterations": 0}
    stages = report.iterations[1:]
    assert all(s["line_search_ok"] is True for s in stages)
    # damped Newton converges quadratically: a few steps per stage (9 here)
    assert sum(s["iterations"] for s in stages) <= 12


@pytest.mark.parametrize("build, p, max_steps", [
    (_probe_square, 1.2, 25),
    (_probe_square, 4.0, 9),
    (_probe_square, 32.0, 43),
    (_cusp_level_1, 32.0, 22),
])
def test_schedule_is_the_p_ladder_then_one_final_stage(build, p, max_steps):
    """Warm start, one stage per p rung at eps0, one final stage at
    (p, eps_final).  max_steps is what the former schedule took, which
    also stepped eps down a decade per stage after the rungs."""
    mesh, constraint, f = build()
    # at p = 2 the solve returns the warm start, whose 2-energy sets eps
    scale = solve_p_laplace(PlapProblem(mesh, constraint, f, 2.0))[1].energy
    _, report = solve_p_laplace(PlapProblem(mesh, constraint, f, p, tol=1e-8))
    stages = report.iterations
    rungs = plaplace._continuation_ladder(2.0, p, plaplace._P_STEP)[1:]
    assert [s["stage"] for s in stages] == ["warm_start"] + ["p_ladder"] * len(rungs) + ["final"]
    assert [s["p"] for s in stages[1:]] == rungs + [p]
    for s in stages[1:-1]:
        assert s["eps"] == pytest.approx(1e-2 * scale, rel=1e-12)
    assert stages[-1]["eps"] == pytest.approx(1e-8 * scale, rel=1e-12)
    assert sum(s["iterations"] for s in stages) <= max_steps


def test_large_p_minimizers_approach_the_aronsson_solution():
    """u_inf = x^(4/3) - y^(4/3) is infinity-harmonic; with it as Dirichlet
    data on the whole boundary, u_p tends to it as p grows."""
    mesh = build_unit_square(16)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    u_inf = x ** (4.0 / 3.0) - y ** (4.0 / 3.0)
    on_boundary = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    boundary = frozenset(int(i) for i in np.nonzero(on_boundary)[0])
    errors = []
    for p in (2.0, 4.0, 8.0, 16.0, 32.0):
        u, _ = solve_p_laplace(PlapProblem(mesh, boundary, ScalarField(mesh, u_inf), p))
        errors.append(float(np.max(np.abs(u.values - u_inf))))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.1 * errors[0]


# -- nested iteration across refinement levels ------------------------------------


def _sweep_cusp_chain(levels):
    """The sweep's cusp data (k = 3, n = 6, Dirichlet on the right end,
    f = y + 0.4 y^2) on levels 0 .. levels - 1 of one refine chain."""
    mesh = build_cusp(3.0, 6)
    out = []
    for lev in range(levels):
        if lev:
            mesh = refine(mesh)
        part = partition_by_tags(mesh, dirichlet=("right",), neumann=("lower", "upper"))
        constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
        out.append((mesh, constraint,
                    ScalarField.from_function(mesh, lambda x, y: y + 0.4 * y * y)))
    return out


def _factorizations(report):
    """Band or SuperLU factorizations of a solve: one per Newton step,
    plus the p = 2 warm start's unless it started from the parent."""
    start = report.iterations[0]
    return sum(s["iterations"] for s in report.iterations) + ("source" not in start)


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 8.0, 32.0])
def test_nested_solves_match_full_solves_up_the_refine_chain(p):
    """Each level starts from the previous level's nested minimizer, as
    sweep chains them, and must reach the minimizer the full schedule
    finds with no more factorizations."""
    coarse = None
    for mesh, constraint, f in _sweep_cusp_chain(3):
        problem = PlapProblem(mesh, constraint, f, p, tol=1e-8)
        u_full, full = solve_p_laplace(problem)
        if coarse is None:
            coarse = u_full
            continue
        u, nested = solve_p_laplace(problem, coarse=coarse)
        assert [s["stage"] for s in nested.iterations] == ["warm_start", "final"]
        assert nested.iterations[0] == {"stage": "warm_start", "source": "parent",
                                        "iterations": 0}
        assert nested.stationarity <= 1e-8
        assert nested.energy == pytest.approx(full.energy, rel=1e-10 if p == 4.0 else 1e-9)
        assert _factorizations(nested) <= _factorizations(full)
        coarse = u


def test_nested_solve_keeps_the_dirichlet_values_and_assembles_the_stiffness_once(
        monkeypatch):
    (coarse_mesh, _, coarse_f), (mesh, constraint, f) = _sweep_cusp_chain(2)
    # a coarse field off the data on the constraint set: the fine solve
    # must still pin f's values there
    coarse = ScalarField(coarse_mesh, coarse_f.values + 1.0)
    calls = Counter()
    _count_calls(monkeypatch, fem, "stiffness_matrix", calls)
    u, report = solve_p_laplace(PlapProblem(mesh, constraint, f, 4.0), coarse=coarse)
    # the pattern of the one free-block solver; no p = 2 solve uses it
    assert calls["stiffness_matrix"] == 1
    fixed = sorted(constraint)
    assert np.array_equal(u.values[fixed], f.values[fixed])
    start = mesh.prolongation @ coarse.values
    start[fixed] = f.values[fixed]
    scale = p_energy(ScalarField(mesh, start), 2.0)
    assert report.iterations[-1]["eps"] == pytest.approx(1e-8 * scale, rel=1e-12)


def _field_on(mesh):
    return ScalarField.from_function(mesh, lambda x, y: x)


def _side_problem(mesh):
    part = partition_by_tags(mesh, dirichlet=("left", "right"), neumann=("bottom", "top"))
    constraint = frozenset(int(i) for i in part.region_vertices("dirichlet"))
    return PlapProblem(mesh, constraint, _field_on(mesh), 3.0)


@pytest.mark.parametrize("meshes", [
    lambda fine: (fine, fine),  # a field on the fine mesh itself
    lambda fine: (fine, Mesh.from_json_dict(fine.parent.to_json_dict())),
    lambda fine: (fine, build_unit_square(4)),  # equal to the parent, not it
    # a mesh read back from JSON has no parent
    lambda fine: (Mesh.from_json_dict(fine.to_json_dict()), fine.parent),
    lambda fine: (fine.parent, fine.parent),
], ids=["fine", "parent_from_json", "parent_rebuilt", "fine_from_json", "unrefined"])
def test_coarse_field_must_live_on_the_parent_mesh(meshes):
    mesh, coarse_mesh = meshes(refine(build_unit_square(4)))
    with pytest.raises(ValueError, match="parent"):
        solve_p_laplace(_side_problem(mesh), coarse=_field_on(coarse_mesh))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coarse_field_is_rejected(bad):
    fine = refine(build_unit_square(4))
    coarse = _field_on(fine.parent)
    coarse.values[3] = bad  # ScalarField checks finiteness only when built
    with pytest.raises(ValueError, match="finite"):
        solve_p_laplace(_side_problem(fine), coarse=coarse)
