"""P1 finite-element operators on triangulated planar domains.

Nodal scalar fields, element-wise constant vector fields, exact P1
inner products, L^p norms, the weak divergence, boundary traces and
conormal cotraces, the trapezoid/midpoint boundary pairing, and the
integration-by-parts residual that ties them together.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .geometry import Mesh, BoundaryPartition, PartitionError


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
    per_tri = uu.sum(axis=1) * vv.sum(axis=1) + np.einsum("ti,ti->t", uu, vv)
    return float(np.sum(u.mesh.areas / 12.0 * per_tri))


def vector_inner(beta, gamma):
    """Integral of the pointwise dot product of element-wise fields."""
    if beta.mesh is not gamma.mesh:
        raise FieldError("fields live on different meshes")
    dots = np.einsum("td,td->t", beta.values, gamma.values)
    return float(np.sum(beta.mesh.areas * dots))


def lp_norm(field, p):
    """L^p norm of a field for p in [1, inf].

    Vector fields use the exact element-wise magnitude.  Scalar fields
    are evaluated at element centroids, except p = 2 which uses the
    exact mass pairing.  p < 1 is rejected (not a norm).
    """
    if p != float("inf") and p < 1.0:
        raise ValueError(f"p = {p} < 1 does not define a norm")
    if isinstance(field, VectorField):
        mags = np.hypot(field.values[:, 0], field.values[:, 1])
    elif isinstance(field, ScalarField):
        if p == 2:
            return float(np.sqrt(scalar_inner(field, field)))
        mags = np.abs(field.values[field.mesh.triangles].mean(axis=1))
    else:
        raise FieldError(f"cannot take a norm of {type(field).__name__}")
    if p == float("inf"):
        return float(mags.max(initial=0.0))
    return float(np.sum(field.mesh.areas * mags**p) ** (1.0 / p))


def w1p_norm(u, p):
    """Sobolev norm ||u||_{L^p} + ||grad u||_{L^p}."""
    return lp_norm(u, p) + lp_norm(gradient(u), p)


# -- assembly --------------------------------------------------------------


def mass_matrix(mesh):
    """Consistent P1 mass matrix (CSR), exact on products of P1 fields."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble(mesh, mesh.areas[:, None, None] * local)


def stiffness_matrix(mesh, weights=None):
    """P1 stiffness matrix, optionally with per-triangle weights."""
    gl = mesh.grad_lambda
    w = mesh.areas if weights is None else mesh.areas * np.asarray(weights)
    local = np.einsum("tid,tjd->tij", gl, gl) * w[:, None, None]
    return _assemble(mesh, local)


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
    contrib = np.einsum("tid,td->ti", mesh.grad_lambda, beta_values)
    contrib *= mesh.areas[:, None]
    s = np.zeros(mesh.num_vertices)
    np.add.at(s, mesh.triangles, contrib)
    return s


def hat_gradient_p_norms(mesh, p):
    """||grad hat_i||_{L^p} for every vertex i (exact, gradients are
    element-wise constant)."""
    mags = np.hypot(mesh.grad_lambda[:, :, 0], mesh.grad_lambda[:, :, 1])
    acc = np.zeros(mesh.num_vertices)
    np.add.at(acc, mesh.triangles, mesh.areas[:, None] * mags**p)
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
    if isinstance(field, ScalarField):
        kind, values = "scalar", field.values.tolist()
        mesh = field.mesh
    elif isinstance(field, VectorField):
        kind = "vector"
        values = field.values.tolist()
        mesh = field.mesh
    elif isinstance(field, BoundaryTrace):
        kind = "trace"
        values = field.values.tolist()
        mesh = field.partition.mesh
    else:
        raise FieldError(f"cannot serialize {type(field).__name__}")
    return {"kind": kind, "values": values, "mesh_hash": mesh.content_hash()}


def write_field(field, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(field_json_dict(field), sort_keys=True))


def read_scalar_field(path, mesh):
    """Read a scalar field written by write_field, verifying it belongs
    to the given mesh via the embedded mesh hash."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("kind") != "scalar":
        raise FieldError(f"expected a scalar field file, got kind {data.get('kind')!r}")
    if data.get("mesh_hash") != mesh.content_hash():
        raise FieldError("field file belongs to a different mesh (hash mismatch)")
    return ScalarField(mesh, np.asarray(data["values"], dtype=np.float64))
