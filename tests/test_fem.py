import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from singfem import fem, geometry, laplace
from singfem.fem import (
    FieldError,
    ScalarField,
    VectorField,
    boundary_functional,
    boundary_pairing,
    cotrace,
    flux_trace_from_function,
    grad_test_vector,
    gradient,
    gradient_operator,
    hat_gradient_p_norms,
    ibp_residual,
    lp_norm,
    mass_matrix,
    scalar_inner,
    stiffness_matrix,
    trace,
    vector_inner,
    w1p_norm,
    weak_divergence,
)
from singfem.geometry import (
    build_annulus,
    build_cusp,
    build_unit_square,
    partition_by_tags,
    refine,
)
from singfem.geometry import _vertex_sum


@pytest.fixture(scope="module")
def square():
    return build_unit_square(8)


@pytest.fixture(scope="module")
def square_part(square):
    return partition_by_tags(
        square, neumann=("left", "right", "bottom", "top")
    )


# -- fields and element integrals -------------------------------------------


def test_field_shape_and_finiteness_checks(square):
    with pytest.raises(FieldError):
        ScalarField(square, np.zeros(3))
    bad = np.zeros(square.num_vertices)
    bad[0] = np.inf
    with pytest.raises(FieldError):
        ScalarField(square, bad)
    with pytest.raises(FieldError):
        VectorField(square, np.zeros((2, 2)))


def test_fields_refuse_cross_mesh_arithmetic(square):
    other = build_unit_square(8)
    u = ScalarField.constant(square, 1.0)
    v = ScalarField.constant(other, 1.0)
    with pytest.raises(FieldError):
        u + v


def test_gradient_exact_for_affine(square):
    u = ScalarField.from_function(square, lambda x, y: 3.0 * x - 2.0 * y + 5.0)
    g = gradient(u)
    assert np.allclose(g.values, [3.0, -2.0], atol=1e-13)


def test_scalar_inner_polynomial_oracles(square):
    one = ScalarField.constant(square, 1.0)
    x = ScalarField.from_function(square, lambda x, y: x)
    # the consistent mass integrates products of nodal fields exactly
    assert scalar_inner(one, one) == pytest.approx(1.0, abs=1e-13)
    assert scalar_inner(x, one) == pytest.approx(0.5, abs=1e-13)
    assert scalar_inner(x, x) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_scalar_inner_is_symmetric_bitwise(square):
    rng = np.random.default_rng(0)
    u = ScalarField(square, rng.standard_normal(square.num_vertices))
    v = ScalarField(square, rng.standard_normal(square.num_vertices))
    assert scalar_inner(u, v) == scalar_inner(v, u)


def test_vector_inner_matches_stiffness(square):
    rng = np.random.default_rng(1)
    u = ScalarField(square, rng.standard_normal(square.num_vertices))
    v = ScalarField(square, rng.standard_normal(square.num_vertices))
    K = stiffness_matrix(square)
    assert vector_inner(gradient(u), gradient(v)) == pytest.approx(
        float(u.values @ (K @ v.values)), rel=1e-12
    )


# -- norms --------------------------------------------------------------------


def test_lp_norm_rejects_p_below_one(square):
    u = ScalarField.constant(square, 1.0)
    with pytest.raises(ValueError):
        lp_norm(u, 0.5)


def test_lp_norm_oracles(square):
    one = ScalarField.constant(square, 2.0)
    assert lp_norm(one, 1) == pytest.approx(2.0, abs=1e-13)
    assert lp_norm(one, 2) == pytest.approx(2.0, abs=1e-13)
    assert lp_norm(one, float("inf")) == 2.0
    beta = VectorField.from_function(square, lambda x, y: (1.0, 0.0))
    for p in (1, 1.5, 2, 4, float("inf")):
        assert lp_norm(beta, p) == pytest.approx(1.0, abs=1e-13)


def test_lp_norms_monotone_in_p_on_unit_area(square):
    u = ScalarField.from_function(square, lambda x, y: x * (1.0 - y))
    norms = [lp_norm(u, p) for p in (1, 2, 4, 8, 16, float("inf"))]
    for a, b in zip(norms, norms[1:]):
        assert b >= a - 1e-12


def test_w1p_norm_combines_value_and_gradient(square):
    u = ScalarField.from_function(square, lambda x, y: x)
    assert w1p_norm(u, 2) == pytest.approx(lp_norm(u, 2) + 1.0, rel=1e-12)


# -- matrices -----------------------------------------------------------------


def test_mass_matrix_row_sums_are_vertex_areas(square):
    M = mass_matrix(square)
    assert float(M.sum()) == pytest.approx(1.0, abs=1e-13)
    sym = (M - M.T).tocoo()
    assert np.max(np.abs(sym.data)) if sym.nnz else 0.0 == 0.0


def test_stiffness_kernel_is_constants(square):
    K = stiffness_matrix(square)
    ones = np.ones(square.num_vertices)
    assert np.max(np.abs(K @ ones)) < 1e-12
    sym = (K - K.T).tocoo()
    assert (np.max(np.abs(sym.data)) if sym.nnz else 0.0) < 1e-15


def test_weighted_stiffness_scales(square):
    w = np.full(square.num_triangles, 2.0)
    K1 = stiffness_matrix(square)
    K2 = fem._assemble(square, fem._element_entries(square, fem._gram_entries(square), w))
    diff = (K2 - 2.0 * K1).tocoo()
    assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) < 1e-14


def test_grad_test_vector_is_stiffness_action(square):
    rng = np.random.default_rng(2)
    u = ScalarField(square, rng.standard_normal(square.num_vertices))
    K = stiffness_matrix(square)
    assert np.allclose(
        grad_test_vector(square, gradient(u).values), K @ u.values, atol=1e-13
    )


_BYTE_MESHES = {
    "square": lambda: build_unit_square(8),
    "annulus": lambda: build_annulus(0.3, 1.0, 3, 12),
    "cusp": lambda: build_cusp(3.0, 4),
}


def _byte_mesh(name, levels):
    mesh = _BYTE_MESHES[name]()
    for _ in range(levels):
        mesh = refine(mesh)
    return mesh


def _fields_with_signed_zeros(mesh, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.standard_normal(mesh.num_vertices)
        v[rng.random(mesh.num_vertices) < 0.3] = 0.0
        v[rng.random(mesh.num_vertices) < 0.2] = -0.0
        yield v


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_gradient_operator_is_the_einsum_gradient_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    G = gradient_operator(mesh)
    assert G.shape == (2 * mesh.num_triangles, mesh.num_vertices)
    assert G.indices.dtype == G.indptr.dtype == np.int32
    for v in _fields_with_signed_zeros(mesh, 10, seed=levels):
        got = (G @ v).reshape(mesh.num_triangles, 2)
        assert got.tobytes() == gradient(ScalarField(mesh, v)).values.tobytes()
    # an all-zero field of either sign, vertex by vertex
    for v in (np.zeros(mesh.num_vertices), np.full(mesh.num_vertices, -0.0)):
        ref = np.einsum("tid,ti->td", mesh.grad_lambda, v[mesh.triangles])
        assert (G @ v).tobytes() == ref.tobytes()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_vertex_sums_are_the_add_at_sums_bit_for_bit(name, levels):
    # grad_test_vector and hat_gradient_p_norms accumulate per vertex in
    # triangle order, as np.add.at does.
    mesh = _byte_mesh(name, levels)
    for x, y in zip(_fields_with_signed_zeros(mesh, 3, seed=levels),
                    _fields_with_signed_zeros(mesh, 3, seed=levels + 1)):
        beta = np.column_stack((x[mesh.triangles[:, 0]], y[mesh.triangles[:, 1]]))
        contrib = np.einsum("tid,td->ti", mesh.grad_lambda, beta) * mesh.areas[:, None]
        ref = np.zeros(mesh.num_vertices)
        np.add.at(ref, mesh.triangles, contrib)
        assert grad_test_vector(mesh, beta).tobytes() == ref.tobytes()
    gl = mesh.grad_lambda
    for p in (1.5, 2.0, 3.0, 8.0):
        mag2 = (gl[:, :, 0] * gl[:, :, 0] + gl[:, :, 1] * gl[:, :, 1]) ** (p / 2.0)
        ref = np.zeros(mesh.num_vertices)
        np.add.at(ref, mesh.triangles, mag2 * mesh.areas[:, None])
        assert hat_gradient_p_norms(mesh, p).tobytes() == (ref ** (1.0 / p)).tobytes()


# The element kernels are column ufuncs; each is pinned, bit for bit, to the
# formula it replaced, kept here.


def _old_mesh_arrays(mesh):
    """areas and grad_lambda as the per-vertex gathers computed them."""
    p0, p1, p2 = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))
    e1, e2 = p1 - p0, p2 - p0
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    gl = np.empty((mesh.num_triangles, 3, 2))
    pts = mesh.vertices[mesh.triangles]
    for i in range(3):
        e = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
        gl[:, i, 0] = -e[:, 1]
        gl[:, i, 1] = e[:, 0]
    gl /= (2.0 * areas)[:, None, None]
    return areas, gl


def _csr_bytes(A):
    return A.data.tobytes(), A.indices.tobytes(), A.indptr.tobytes()


def _coo_reference(mesh, local):
    """The CSR matrix of the (nt, 3, 3) element matrices local, summed by
    SciPy from COO entries in (t, i, j) order."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = mesh.num_vertices
    return coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_mesh_arrays_and_hash_are_the_old_formulas_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    areas, gl = _old_mesh_arrays(mesh)
    assert mesh.areas.tobytes() == areas.tobytes()
    assert mesh.grad_lambda.tobytes() == gl.tobytes()
    assert mesh.centroids().tobytes() == mesh.vertices[mesh.triangles].mean(axis=1).tobytes()
    text = json.dumps(mesh.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert mesh.content_hash() == hashlib.sha256(text.encode("utf-8")).hexdigest()
    rows = mesh.triangles.tolist()  # indices 0..max: the digit-table path
    assert b"[" + geometry._int_rows_json(mesh.triangles) + b"]" == json.dumps(
        rows, separators=(",", ":")).encode()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_stiffness_is_the_einsum_assembly_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    gl = mesh.grad_lambda
    full = np.einsum("tid,tjd->tij", gl, gl)
    ref = _coo_reference(mesh, full * mesh.areas[:, None, None])
    assert _csr_bytes(stiffness_matrix(mesh)) == _csr_bytes(ref)
    w = np.random.default_rng(levels).uniform(0.1, 10.0, mesh.num_triangles)
    ref = _coo_reference(mesh, full * (mesh.areas * w)[:, None, None])
    K_w = fem._assemble(mesh, fem._element_entries(mesh, fem._gram_entries(mesh), w))
    assert _csr_bytes(K_w) == _csr_bytes(ref)
    i, j = fem._UPPER
    assert fem._gram_entries(mesh).tobytes() == full[:, i, j].tobytes()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_mass_matrix_is_the_outer_product_assembly_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    ref = _coo_reference(mesh, mesh.areas[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0))
    assert _csr_bytes(mass_matrix(mesh)) == _csr_bytes(ref)


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_vertex_column_sums_are_the_axis_reductions_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    fields = list(_fields_with_signed_zeros(mesh, 4, seed=levels + 7))
    for u, v in zip(fields, fields[1:]):
        uu, vv = u[mesh.triangles], v[mesh.triangles]
        per_tri = uu.sum(axis=1) * vv.sum(axis=1) + np.einsum("ti,ti->t", uu, vv)
        ref = float(np.sum(mesh.areas / 12.0 * per_tri))
        got = scalar_inner(ScalarField(mesh, u), ScalarField(mesh, v))
        assert math.copysign(1.0, got) == math.copysign(1.0, ref) and got == ref
        mags = np.abs(uu.mean(axis=1))
        for p in (1.0, 3.0, float("inf")):
            ref = (float(mags.max(initial=0.0)) if p == float("inf")
                   else float(np.sum(mesh.areas * mags**p) ** (1.0 / p)))
            assert lp_norm(ScalarField(mesh, u), p) == ref
    # a sum of three zeros keeps the sign the reduction gives it
    for signs in itertools.product((0.0, -0.0), repeat=3):
        a = np.array([signs])
        assert _vertex_sum(a).tobytes() == a.sum(axis=1).tobytes()
        assert _vertex_sum(a[:, :, None]).tobytes() == a[:, :, None].sum(axis=1).tobytes()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_gradient_dots_are_the_einsum_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    fields = list(_fields_with_signed_zeros(mesh, 4, seed=levels + 3))
    for x, y in zip(fields, fields[1:]):
        beta = np.column_stack((x[mesh.triangles[:, 0]], y[mesh.triangles[:, 2]]))
        ref = np.einsum("tid,td->ti", mesh.grad_lambda, beta)
        assert fem._grad_dot(mesh, beta).tobytes() == ref.tobytes()
    # two -0.0 products: einsum's sum from +0.0 makes them +0.0
    gl = mesh.grad_lambda
    beta = np.where(gl[:, 0] == 0.0, np.copysign(1.0, -gl[:, 0]), 0.0)
    ref = np.einsum("tid,td->ti", gl, beta)
    assert fem._grad_dot(mesh, beta).tobytes() == ref.tobytes()
    # and the Hessian entries built on them, with the anisotropic term
    # accumulated as the full-array formula did
    w = np.random.default_rng(levels).uniform(0.1, 10.0, mesh.num_triangles)
    c = np.linspace(-0.5, 2.0, mesh.num_triangles)
    for g in (beta, np.column_stack((fields[0][mesh.triangles[:, 1]],
                                     fields[1][mesh.triangles[:, 0]]))):
        gram = fem._gram_entries(mesh)
        q = np.einsum("tid,td->ti", gl, g)
        i, j = fem._UPPER
        ref = gram * (mesh.areas * w)[:, None] + q[:, i] * q[:, j] * (mesh.areas * c)[:, None]
        assert fem._element_entries(mesh, gram, w, g, c).tobytes() == ref.tobytes()


@pytest.mark.parametrize("levels", [0, 2])
@pytest.mark.parametrize("name", sorted(_BYTE_MESHES))
def test_free_blocks_and_their_order_are_the_csc_cut_bit_for_bit(name, levels):
    mesh = _byte_mesh(name, levels)
    nv = mesh.num_vertices
    rng = np.random.default_rng(levels)
    gl = mesh.grad_lambda
    full = np.einsum("tid,tjd->tij", gl, gl)
    K = stiffness_matrix(mesh)
    K_ref = _coo_reference(mesh, full * mesh.areas[:, None, None])
    w = rng.uniform(0.1, 10.0, mesh.num_triangles)
    K_w = fem._assemble(mesh, fem._element_entries(mesh, fem._gram_entries(mesh), w))
    K_w_ref = _coo_reference(mesh, full * (mesh.areas * w)[:, None, None])
    for free in (np.arange(1, nv), np.sort(rng.choice(nv, 2 * nv // 3, replace=False))):
        ref = K_ref.tocsc()[:, free][free].tocsr()
        solver = laplace._FreeBlockSolver(mesh, free, 1e-12)
        assert _csr_bytes(laplace._free_block(K, free)) == _csr_bytes(ref)
        assert solver.perm.tobytes() == reverse_cuthill_mckee(ref, symmetric_mode=True).tobytes()
        ref_w = K_w_ref.tocsc()[:, free][free].tocsr()
        assert _csr_bytes(laplace._free_block(K_w, free)) == _csr_bytes(ref_w)


def test_hat_gradient_p_norms_positive(square):
    for p in (1.5, 2.0, 4.0):
        norms = hat_gradient_p_norms(square, p)
        assert norms.shape == (square.num_vertices,)
        assert np.all(norms > 0.0)


# -- boundary calculus ---------------------------------------------------------


def test_trace_restricts_nodal_values(square, square_part):
    u = ScalarField.from_function(square, lambda x, y: x + y)
    tr = trace(square_part, u, "left")
    assert tr.kind == "vertex"
    assert np.allclose(tr.values, square.vertices[tr.indices, 1], atol=1e-14)


def test_cotrace_constant_field(square, square_part):
    beta = VectorField.from_function(square, lambda x, y: (1.0, 0.0))
    cot = cotrace(square_part, beta, "right")
    assert cot.kind == "edge"
    assert np.allclose(cot.values, 1.0, atol=1e-14)
    cot_top = cotrace(square_part, beta, "top")
    assert np.allclose(cot_top.values, 0.0, atol=1e-14)


def test_cotrace_pole_field_on_outer_circle():
    m = build_annulus(0.5, 1.0, 16, 48)
    part = partition_by_tags(m, neumann=("inner", "outer"))
    beta = VectorField.from_function(
        m, lambda x, y: (x / (x**2 + y**2), y / (x**2 + y**2))
    )
    cot = cotrace(part, beta, "outer")
    # conormal flux of the pole field on the radius-R circle is 1/R; the
    # sample lives at the adjacent centroid, one ring width inside
    assert np.allclose(cot.values, 1.0, rtol=0.02)
    assert np.ptp(cot.values) < 1e-12  # rotational symmetry


def test_boundary_pairing_divergence_theorem(square, square_part):
    one = ScalarField.constant(square, 1.0)
    beta = VectorField.from_function(square, lambda x, y: (x, 0.0 * y))
    pairing = boundary_pairing(
        trace(square_part, one, "boundary"), cotrace(square_part, beta, "boundary")
    )
    # the flux sample lives at the adjacent centroid, h/3 inside each
    # vertical side: the discrete circulation is exactly 1 - 2h/3
    h = 1.0 / 8.0
    assert pairing == pytest.approx(1.0 - 2.0 * h / 3.0, abs=1e-12)
    constant = VectorField.from_function(square, lambda x, y: (1.0, 0.0))
    closed = boundary_pairing(
        trace(square_part, one, "boundary"),
        cotrace(square_part, constant, "boundary"),
    )
    assert abs(closed) < 1e-12


def test_boundary_pairing_requires_matching_regions(square, square_part):
    u = ScalarField.constant(square, 1.0)
    beta = VectorField.from_function(square, lambda x, y: (1.0, 0.0))
    tr = trace(square_part, u, "left")
    cot = cotrace(square_part, beta, "right")
    with pytest.raises(FieldError):
        boundary_pairing(tr, cot)


def test_boundary_functional_integrates_traces(square, square_part):
    theta = flux_trace_from_function(square_part, "boundary", lambda x, y, nx, ny: 1.0)
    vec = boundary_functional(square_part, theta)
    # pairing with the constant field measures the boundary length
    assert float(vec.sum()) == pytest.approx(4.0, abs=1e-12)


# -- weak divergence and the trace identity -----------------------------------


@pytest.mark.parametrize("builder", [
    lambda: build_unit_square(6),
    lambda: build_annulus(0.3, 1.0, 5, 20),
    lambda: build_cusp(2.0, 5),
])
def test_weak_divergence_closes_trace_identity(builder):
    mesh = builder()
    part = partition_by_tags(mesh, neumann=tuple(sorted(set(mesh.boundary_tags))))
    rng = np.random.default_rng(7)
    for _ in range(5):
        beta = VectorField(mesh, rng.standard_normal((mesh.num_triangles, 2)))
        u = ScalarField(mesh, rng.standard_normal(mesh.num_vertices))
        div = weak_divergence(part, beta)
        resid = ibp_residual(part, u, beta, div, "boundary")
        scale = 1.0 + lp_norm(beta, 2) * w1p_norm(u, 2)
        assert abs(resid) <= 1e-11 * scale


# Cusps and annuli of random shape, the roots of the refine chains drawn below.
_CURVED_MESHES = st.one_of(
    st.builds(build_cusp, st.floats(1.0, 4.0), st.integers(2, 5)),
    st.builds(lambda r_in, factor, n_radial, n_angular:
              build_annulus(r_in, r_in * factor, n_radial, n_angular),
              st.floats(0.05, 1.0), st.floats(1.5, 20.0),
              st.integers(1, 3), st.integers(3, 12)),
)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    mesh=st.one_of(st.builds(build_unit_square, st.integers(1, 8)), _CURVED_MESHES),
    levels=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_load_vector_is_the_mass_matrix_product(mesh, levels, seed):
    for _ in range(levels):
        mesh = refine(mesh)
    rng = np.random.default_rng(seed)
    eps = np.finfo(np.float64).eps
    M = mass_matrix(mesh)
    g = rng.standard_normal(mesh.num_vertices) * 10.0 ** rng.uniform(-6.0, 6.0)
    load = fem._load_vector(ScalarField(mesh, g))
    # both sums round within a few ulps of the sum of the magnitudes
    assert np.all(np.abs(load - M @ g) <= 8.0 * eps * (M @ np.abs(g)))
    for _ in range(3):
        v = rng.standard_normal(mesh.num_vertices)
        exact = scalar_inner(ScalarField(mesh, g), ScalarField(mesh, v))
        bound = scalar_inner(ScalarField(mesh, np.abs(g)), ScalarField(mesh, np.abs(v)))
        assert abs(load @ v - exact) <= 8.0 * eps * bound


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    mesh=_CURVED_MESHES,
    levels=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_weak_divergence_closes_trace_identity_on_refined_meshes(mesh, levels, seed):
    for _ in range(levels):
        mesh = refine(mesh)
    rng = np.random.default_rng(seed)
    tags = sorted(set(mesh.boundary_tags))
    dirichlet = [tag for tag in tags if rng.random() < 0.5]
    part = partition_by_tags(mesh, dirichlet=dirichlet,
                             neumann=[tag for tag in tags if tag not in dirichlet])
    beta = VectorField(mesh, rng.standard_normal((mesh.num_triangles, 2)))
    u = ScalarField(mesh, rng.standard_normal(mesh.num_vertices))
    resid = ibp_residual(part, u, beta, weak_divergence(part, beta), "boundary")
    assert abs(resid) <= 1e-11 * (1.0 + lp_norm(beta, 2) * w1p_norm(u, 2))


def test_weak_divergence_of_linear_field(square, square_part):
    beta = VectorField.from_function(square, lambda x, y: (x, y))
    div = weak_divergence(square_part, beta)
    one = ScalarField.constant(square, 1.0)
    total = scalar_inner(div, one)
    pairing = boundary_pairing(
        trace(square_part, one, "boundary"), cotrace(square_part, beta, "boundary")
    )
    # testing against v = 1 kills the gradient term, so the weak divergence
    # must integrate to the discrete outflux, which is exactly 2 - 4h/3 here
    h = 1.0 / 8.0
    assert total == pytest.approx(pairing, abs=1e-12)
    assert pairing == pytest.approx(2.0 - 4.0 * h / 3.0, abs=1e-12)
    # flux sampling error pollutes nodal values only near the boundary
    center = int(
        np.argmin(
            np.hypot(square.vertices[:, 0] - 0.5, square.vertices[:, 1] - 0.5)
        )
    )
    assert abs(div.values[center] - 2.0) < 0.05
