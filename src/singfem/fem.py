"""P1 finite-element operators on triangulated planar domains.

Nodal scalar fields, element-wise constant vector fields, exact P1
inner products, L^p norms, the weak divergence, boundary traces and
conormal cotraces, the trapezoid/midpoint boundary pairing, and the
integration-by-parts residual that ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .geometry import Mesh, BoundaryPartition, _vertex_sum


class FieldError(Exception):
    """A field is malformed or attached to the wrong mesh."""


@dataclass(eq=False)
class ScalarField:
    """Piecewise-linear nodal field: one value per mesh vertex."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.num_vertices,):
            raise FieldError(
                f"scalar field needs {self.mesh.num_vertices} nodal values, "
                f"got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("scalar field values must be finite")

    @classmethod
    def from_function(cls, mesh, fn):
        return cls(mesh, fn(mesh.vertices[:, 0], mesh.vertices[:, 1]) * np.ones(mesh.num_vertices))

    @classmethod
    def constant(cls, mesh, c):
        return cls(mesh, np.full(mesh.num_vertices, float(c)))

    def __add__(self, other):
        self._check(other)
        return ScalarField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ScalarField(self.mesh, self.values - other.values)

    def __rmul__(self, a):
        return ScalarField(self.mesh, float(a) * self.values)

    def _check(self, other):
        if other.mesh is not self.mesh:
            raise FieldError("fields live on different meshes")


@dataclass(eq=False)
class VectorField:
    """Element-wise constant planar vector field: one 2-vector per triangle."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.num_triangles, 2):
            raise FieldError(
                f"vector field needs shape ({self.mesh.num_triangles}, 2), "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise FieldError("vector field values must be finite")

    @classmethod
    def from_function(cls, mesh, fn):
        """Sample an analytic vector field at the element centroids."""
        c = mesh.centroids()
        fx, fy = fn(c[:, 0], c[:, 1])
        vals = np.column_stack((fx * np.ones(len(c)), fy * np.ones(len(c))))
        return cls(mesh, vals)


@dataclass(eq=False)
class BoundaryTrace:
    """Values attached to one boundary region.

    kind "vertex": nodal values on the region's vertices (a trace).
    kind "edge": one value per region edge (a conormal flux/cotrace).
    indices index into the mesh's vertices or boundary edges.
    """

    partition: BoundaryPartition
    region: str
    kind: str
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise FieldError(f"unknown trace kind {self.kind!r}")
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise FieldError("trace indices and values must align")
        if not np.all(np.isfinite(self.values)):
            raise FieldError("trace values must be finite")


# -- element integrals ----------------------------------------------------


def gradient(u):
    """Element-wise gradient of a nodal field (exact for P1)."""
    vals = u.values[u.mesh.triangles]  # (nt, 3)
    return VectorField(u.mesh, np.einsum("tid,ti->td", u.mesh.grad_lambda, vals))


def gradient_operator(mesh):
    """CSR matrix G, shape (2 nt, nv), of the element gradient: row
    2 t + d holds grad_lambda[t, i, d] at column triangles[t, i] for
    i = 0, 1, 2, so (G @ values).reshape(nt, 2) equals gradient's einsum
    bit for bit.  It pays off over repeated gradients on one mesh; build
    it per call site, nothing caches it.  Indices are int32 when the mesh
    allows it."""
    nt, nv = mesh.num_triangles, mesh.num_vertices
    index = np.int32 if nv < 2**31 else np.int64
    cols = np.repeat(mesh.triangles.astype(index), 2, axis=0).reshape(-1)
    data = mesh.grad_lambda.transpose(0, 2, 1).reshape(-1)
    indptr = np.arange(0, 6 * nt + 1, 3, dtype=index)
    return csr_matrix((data, cols, indptr), shape=(2 * nt, nv))


def scalar_inner(u, v):
    """Exact integral of the product of two P1 fields.

    Uses the consistent element mass pairing
    (A/12) * (sum_i u_i * sum_j v_j + sum_i u_i v_i), which is
    symmetric in u and v bit-for-bit.
    """
    if u.mesh is not v.mesh:
        raise FieldError("fields live on different meshes")
    uu = u.values[u.mesh.triangles]
    vv = v.values[v.mesh.triangles]
    per_tri = _vertex_sum(uu)
    per_tri *= _vertex_sum(vv)
    per_tri += np.einsum("ti,ti->t", uu, vv)
    return float(np.sum(u.mesh.areas / 12.0 * per_tri))


def vector_inner(beta, gamma):
    """Integral of the pointwise dot product of element-wise fields."""
    if beta.mesh is not gamma.mesh:
        raise FieldError("fields live on different meshes")
    dots = np.einsum("td,td->t", beta.values, gamma.values)
    return float(np.sum(beta.mesh.areas * dots))


def lp_norm(field, p):
    """L^p norm of a field for p in [1, inf].

    A vector field v gives (sum_T area_T (v_x^2 + v_y^2)^(p/2))^(1/p),
    and sqrt(max_T (v_x^2 + v_y^2)) at p = inf: the squared magnitude
    of the p-Laplace energy, with no hypot.  Scalar fields are evaluated
    at element centroids, except p = 2 which uses the exact mass
    pairing.  p < 1 is rejected (not a norm).
    """
    if p != float("inf") and p < 1.0:
        raise ValueError(f"p = {p} < 1 does not define a norm")
    if isinstance(field, VectorField):
        return _vector_lp_norm(field.values[:, 0], field.values[:, 1], field.mesh.areas, p)
    elif isinstance(field, ScalarField):
        if p == 2:
            return float(np.sqrt(scalar_inner(field, field)))
        mags = np.abs(_vertex_sum(field.values[field.mesh.triangles]) / 3.0)
    else:
        raise FieldError(f"cannot take a norm of {type(field).__name__}")
    if p == float("inf"):
        return float(mags.max(initial=0.0))
    return float(np.sum(field.mesh.areas * mags**p) ** (1.0 / p))


def _vector_lp_norm(x, y, areas, p):
    """lp_norm of the element-wise vector field with components x and y."""
    # One temporary for the squares; every later step works in place.
    mag2 = x * x
    mag2 += y * y
    if p == float("inf"):
        return float(np.sqrt(mag2.max(initial=0.0)))
    mag2 **= p / 2.0
    mag2 *= areas
    return float(np.sum(mag2) ** (1.0 / p))


def w1p_norm(u, p):
    """Sobolev norm ||u||_{L^p} + ||grad u||_{L^p}."""
    return lp_norm(u, p) + lp_norm(gradient(u), p)


# -- assembly --------------------------------------------------------------


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSR), exact on products of P1 fields."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble(mesh, mesh.areas[:, None, None] * local)


def stiffness_matrix(mesh, weights=None):
    """P1 stiffness matrix, optionally with per-triangle weights: element
    matrices area_T w_T grad l_i . grad l_j, filled column by column from
    _gram_columns.  local keeps the (t, i, j) order of the COO entries,
    which decides the order in which SciPy sums the duplicates."""
    w = mesh.areas if weights is None else mesh.areas * np.asarray(weights)
    local = np.empty((mesh.num_triangles, 3, 3))
    for a, b, column in _gram_columns(mesh):
        np.multiply(column, w, out=local[:, a, b])
        if a != b:
            local[:, b, a] = local[:, a, b]
    return _assemble(mesh, local)


_UPPER = np.triu_indices(3)  # the six entries i <= j of an element matrix


def _gram_columns(mesh):
    """(a, b, column) for the six entries (a, b) of _UPPER in order, column
    being grad l_a . grad l_b of every element: einsum("tid,tjd->tij")[:, a, b]
    to the bit without that (nt, 3, 3) temporary.  One buffer holds each
    column in turn; use it before the next one."""
    gl = mesh.grad_lambda
    column = np.empty(mesh.num_triangles)
    for a, b in zip(*_UPPER):
        yield a, b, np.einsum("td,td->t", gl[:, a], gl[:, b], out=column)


def _gram_entries(mesh):
    """The (nt, 6) array of _gram_columns, in _UPPER order: the upper
    entries of every element's Gram matrix, which depend on the mesh only."""
    out = np.empty((mesh.num_triangles, 6))
    for k, (_, _, column) in enumerate(_gram_columns(mesh)):
        out[:, k] = column
    return out


def _assemble(mesh, local):
    """CSR matrix summing the (nt, 3, 3) element matrices into place.
    The COO indices are int32 when the mesh allows it, which is what
    SciPy would convert them to; building them so skips two int64 copies
    of nine entries per triangle."""
    nv = mesh.num_vertices
    tri = mesh.triangles.astype(np.int32 if nv < 2**31 else np.int64)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def grad_test_vector(mesh, beta_values):
    """Vector s with s_i = <beta, grad hat_i> for every hat function."""
    contrib = _grad_dot(mesh, beta_values)
    contrib *= mesh.areas[:, None]
    # bincount sums in input order, as np.add.at would, and faster.
    return np.bincount(mesh.triangles.reshape(-1), weights=contrib.reshape(-1),
                       minlength=mesh.num_vertices)


def _grad_dot(mesh, beta_values):
    """grad l_i . beta_T of every element, (nt, 3): einsum("tid,td->ti") to
    the bit, as two column products summed in einsum's order
    (0 + gl_x beta_x) + gl_y beta_y.  The zero start turns a -0.0 first
    product into +0.0."""
    gl = mesh.grad_lambda
    out = gl[:, :, 0] * beta_values[:, 0, None]
    out += 0.0
    # The second products column by column: as one (nt, 3) temporary they
    # raised the p-solves' peak resident set by 0.5 MB.
    for i in range(3):
        out[:, i] += gl[:, i, 1] * beta_values[:, 1]
    return out


def hat_gradient_p_norms(mesh, p):
    """||grad hat_i||_{L^p} for every vertex i (exact, gradients are
    element-wise constant)."""
    gl = mesh.grad_lambda
    mag2 = gl[:, :, 0] * gl[:, :, 0]
    mag2 += gl[:, :, 1] * gl[:, :, 1]
    mag2 **= p / 2.0
    mag2 *= mesh.areas[:, None]
    acc = np.bincount(mesh.triangles.reshape(-1), weights=mag2.reshape(-1),
                      minlength=mesh.num_vertices)
    return acc ** (1.0 / p)


# -- traces and boundary pairing -------------------------------------------


def trace(partition, u, region):
    """Nodal restriction of a scalar field to a boundary region."""
    if u.mesh is not partition.mesh:
        raise FieldError("field and partition live on different meshes")
    idx = partition.region_vertices(region)
    return BoundaryTrace(partition, region, "vertex", idx, u.values[idx])


def cotrace(partition, beta, region):
    """Conormal flux beta . nu per region edge, taken from the single
    triangle adjacent to each boundary edge."""
    if beta.mesh is not partition.mesh:
        raise FieldError("field and partition live on different meshes")
    mesh = partition.mesh
    edges = partition.region_edges(region)
    flux = np.einsum(
        "ed,ed->e",
        beta.values[mesh.boundary_tri[edges]],
        mesh.boundary_normals[edges],
    )
    return BoundaryTrace(partition, region, "edge", edges, flux)


def boundary_pairing(tr, cot):
    """Duality pairing <cotrace, trace> over a shared boundary region.

    Edge-wise quadrature: trapezoid in the trace (endpoint average),
    midpoint in the flux, i.e. sum of length * flux * avg(trace).
    """
    if tr.kind != "vertex" or cot.kind != "edge":
        raise FieldError("pairing needs a vertex trace and an edge cotrace")
    if tr.partition is not cot.partition or tr.region != cot.region:
        raise FieldError("trace and cotrace must share a partition and region")
    mesh = tr.partition.mesh
    vals = np.zeros(mesh.num_vertices)
    vals[tr.indices] = tr.values
    edges = cot.indices
    tails = mesh.boundary_edges[edges, 0]
    heads = mesh.boundary_edges[edges, 1]
    avg = 0.5 * (vals[tails] + vals[heads])
    return float(np.sum(mesh.boundary_lengths[edges] * cot.values * avg))


def boundary_functional(partition, cot):
    """Assembled vector t with t_i = pairing(trace of hat_i, cot)."""
    mesh = partition.mesh
    edges = cot.indices
    t = np.zeros(mesh.num_vertices)
    half = 0.5 * mesh.boundary_lengths[edges] * cot.values
    np.add.at(t, mesh.boundary_edges[edges, 0], half)
    np.add.at(t, mesh.boundary_edges[edges, 1], half)
    return t


def flux_trace_from_function(partition, region, fn):
    """Edge cotrace sampled from an analytic flux density.

    fn(x, y, nx, ny) is evaluated at edge midpoints with the outward
    unit normal; it must return the scalar conormal flux.
    """
    mesh = partition.mesh
    edges = partition.region_edges(region)
    mid = mesh.edge_midpoints()[edges]
    nrm = mesh.boundary_normals[edges]
    vals = fn(mid[:, 0], mid[:, 1], nrm[:, 0], nrm[:, 1]) * np.ones(len(edges))
    return BoundaryTrace(partition, region, "edge", edges, vals)


# -- weak divergence and integration by parts ------------------------------


def weak_divergence(partition, beta):
    """Nodal weak divergence of an element-wise vector field.

    Interior nodal values satisfy <div, hat_i> = -<beta, grad hat_i>;
    boundary values are defined so that the discrete trace identity

        <beta, grad u> + <div, u> = <cotrace(beta), trace(u)>

    closes exactly (up to the mass solve) for every nodal u over the
    full boundary.
    """
    if beta.mesh is not partition.mesh:
        raise FieldError("field and partition live on different meshes")
    mesh = partition.mesh
    g = grad_test_vector(mesh, beta.values)
    bp = boundary_functional(partition, cotrace(partition, beta, "boundary"))
    rhs = bp - g
    lu = splu(mass_matrix(mesh).tocsc())
    return ScalarField(mesh, lu.solve(rhs))


def ibp_residual(partition, u, beta, div_beta, region):
    """Integration-by-parts residual over one boundary region:

        R = <beta, grad u> + <div_beta, u> - <cotrace(beta), trace(u)>.

    With div_beta = weak_divergence(beta) and region = "boundary" the
    residual vanishes to solver precision by construction; with an
    analytic divergence it measures the quadrature/consistency error.
    """
    t1 = vector_inner(beta, gradient(u))
    t2 = scalar_inner(div_beta, u)
    t3 = boundary_pairing(trace(partition, u, region), cotrace(partition, beta, region))
    return t1 + t2 - t3


# -- serialization ---------------------------------------------------------


def field_json_dict(field):
    """The "solution" object of a solution.json artifact: a scalar field's
    nodal values and its mesh's content hash."""
    if not isinstance(field, ScalarField):
        raise FieldError(f"cannot serialize {type(field).__name__}")
    return {"kind": "scalar", "values": field.values.tolist(),
            "mesh_hash": field.mesh.content_hash()}
