"""Triangulated planar domains with tagged boundaries.

Structured generators (rectangle, annulus, cusp wedge), boundary
partitioning into Dirichlet/Neumann regions, uniform red refinement,
the shortest-edge-path inner metric, and the codimension threshold
exponent for constraint sets.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra


class MeshError(Exception):
    """A triangulation violates a structural invariant."""


class PartitionError(Exception):
    """Boundary tagging rules fail to partition the boundary edges."""


# Relative tolerance for the triangle-area vs. boundary-polygon-area check.
_AREA_RTOL = 1e-9


def _triangle_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _edge_midpoint_order(triangles):
    """Unique undirected triangle edges in first-appearance order.

    Returns (pairs, edge_of): pairs[e] = (lo, hi) is the e-th distinct
    edge in triangle-major, local-edge-minor order (local edges (0,1),
    (1,2), (2,0)), and edge_of[t, j] is the index in pairs of local
    edge j of triangle t.  The ordering fixes the indices of the
    midpoint vertices appended by `refine`, so `prolong` can reproduce
    them without storing parent links.
    """
    tri_edges = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    nv = int(triangles.max()) + 1 if triangles.size else 0
    lo = np.minimum(tri_edges[:, 0], tri_edges[:, 1]).astype(np.int64)
    hi = np.maximum(tri_edges[:, 0], tri_edges[:, 1]).astype(np.int64)
    _, first, inverse = np.unique(lo * np.int64(nv) + hi, return_index=True,
                                  return_inverse=True)
    # np.unique sorts by key; rank the distinct edges by first appearance.
    by_appearance = np.argsort(first, kind="stable")
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(by_appearance))
    first = first[by_appearance]
    pairs = np.column_stack((lo[first], hi[first]))
    return pairs, rank[inverse.ravel()].reshape(-1, 3)


def _canonical_dumps(json_dict):
    return json.dumps(json_dict, sort_keys=True, separators=(",", ":"))


def _discover_boundary(triangles):
    """Directed boundary edges in triangle-major, local-edge-minor order.

    Returns (edges, tri_index) where each directed edge keeps the
    orientation of the unique triangle containing it, so the domain
    lies on its left.
    """
    tri_edges = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    _, edge_of = _edge_midpoint_order(triangles)
    edge_of = edge_of.ravel()
    on_boundary = np.bincount(edge_of)[edge_of] == 1
    tri_index = np.repeat(np.arange(len(triangles)), 3)[on_boundary]
    return tri_edges[on_boundary], tri_index


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a planar domain.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices in counterclockwise order.
    boundary_edges : (ne, 2) int array
        Directed boundary edges in discovery order (the domain lies to
        the left of each edge; use `from_triangulation` to build).
    boundary_tags : tuple of str
        Region name of each boundary edge, aligned with boundary_edges.
    singular_vertices : frozenset of int
        Vertex indices declared as singular frontier points.

    Derived arrays (areas, barycentric gradients, boundary normals,
    lengths and adjacent triangles) are computed at construction; all
    arrays are frozen and no attribute can be reassigned afterwards, so
    the content hash is computed at most once.

    A mesh made by `refine` also records its refinement chain: `parent`
    is the coarse mesh and `prolongation` the sparse (nv, parent nv)
    matrix P with P @ v == prolong(parent, v).  Other meshes, including
    those read back from JSON, have neither; neither enters the JSON form
    or the content hash.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple
    singular_vertices: frozenset = frozenset()
    areas: np.ndarray = field(init=False, repr=False)
    grad_lambda: np.ndarray = field(init=False, repr=False)
    boundary_lengths: np.ndarray = field(init=False, repr=False)
    boundary_normals: np.ndarray = field(init=False, repr=False)
    boundary_tri: np.ndarray = field(init=False, repr=False)
    parent: Mesh | None = field(default=None, init=False, repr=False)
    prolongation: csr_matrix | None = field(default=None, init=False, repr=False)
    _hash: str | None = field(default=None, init=False, repr=False)

    def __setattr__(self, name, value):
        if self.__dict__.get("_sealed"):
            raise AttributeError(f"Mesh is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.boundary_tags = tuple(str(t) for t in self.boundary_tags)
        self.singular_vertices = frozenset(int(i) for i in self.singular_vertices)

        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        nv = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")
        for i in self.singular_vertices:
            if not 0 <= i < nv:
                raise MeshError(f"singular vertex index {i} out of range")

        areas = _triangle_areas(self.vertices, self.triangles)
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(
                f"triangle {bad[0]} has non-positive area {areas[bad[0]]:.3e}; "
                "triangles must be counterclockwise and non-degenerate"
            )
        self.areas = areas

        # P1 barycentric gradients: grad lambda_i = perp(p_{i+2} - p_{i+1}) / (2A)
        # with perp(v) = (-v_y, v_x).
        gl = np.empty((len(self.triangles), 3, 2))
        pts = self.vertices[self.triangles]  # (nt, 3, 2)
        for i in range(3):
            e = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
            gl[:, i, 0] = -e[:, 1]
            gl[:, i, 1] = e[:, 0]
        gl /= (2.0 * areas)[:, None, None]
        self.grad_lambda = gl

        disc_edges, disc_tri = _discover_boundary(self.triangles)
        if disc_edges.shape != self.boundary_edges.shape or not np.array_equal(
            disc_edges, self.boundary_edges
        ):
            raise MeshError(
                "boundary_edges must equal the discovered boundary in "
                "triangle-major order; use Mesh.from_triangulation"
            )
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise MeshError("one tag required per boundary edge")
        self.boundary_tri = disc_tri

        tails = self.boundary_edges[:, 0]
        heads = self.boundary_edges[:, 1]
        if len(np.unique(tails)) != len(tails) or len(np.unique(heads)) != len(heads):
            raise MeshError("boundary edges do not form simple closed loops")
        if set(tails.tolist()) != set(heads.tolist()):
            raise MeshError("boundary edges do not close up")

        d = self.vertices[heads] - self.vertices[tails]
        lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(lengths <= 0.0):
            raise MeshError("zero-length boundary edge")
        self.boundary_lengths = lengths
        # Outward unit normal: rotate the CCW edge direction clockwise.
        self.boundary_normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]

        # Sum of element areas must reproduce the shoelace area of the
        # boundary polygon (loops oriented with the domain on the left).
        pt = self.vertices[tails]
        ph = self.vertices[heads]
        poly_area = 0.5 * float(np.sum(pt[:, 0] * ph[:, 1] - ph[:, 0] * pt[:, 1]))
        total = float(np.sum(self.areas))
        if abs(total - poly_area) > _AREA_RTOL * max(1.0, abs(total)):
            raise MeshError(
                f"element areas sum to {total!r} but the boundary polygon "
                f"encloses {poly_area!r}"
            )

        for arr in (
            self.vertices,
            self.triangles,
            self.boundary_edges,
            self.areas,
            self.grad_lambda,
            self.boundary_lengths,
            self.boundary_normals,
            self.boundary_tri,
        ):
            arr.setflags(write=False)
        self._sealed = True

    @classmethod
    def from_triangulation(cls, vertices, triangles, edge_tag, singular_vertices=()):
        """Build a mesh, tagging each discovered boundary edge.

        edge_tag is a callable (tail_index, head_index) -> str.
        """
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        edges, _ = _discover_boundary(triangles)
        tags = tuple(edge_tag(int(a), int(b)) for a, b in edges)
        return cls(vertices, triangles, edges, tags, frozenset(singular_vertices))

    # -- counts ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_boundary_edges(self):
        return len(self.boundary_edges)

    def centroids(self):
        return self.vertices[self.triangles].mean(axis=1)

    def edge_midpoints(self):
        """Midpoints of the boundary edges, shape (ne, 2)."""
        return 0.5 * (
            self.vertices[self.boundary_edges[:, 0]]
            + self.vertices[self.boundary_edges[:, 1]]
        )

    # -- serialization --------------------------------------------------

    def to_json_dict(self):
        return {
            "vertices": self.vertices.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_edges": [
                [a, b, tag]
                for (a, b), tag in zip(self.boundary_edges.tolist(), self.boundary_tags)
            ],
            "singular_vertices": sorted(self.singular_vertices),
        }

    def canonical_json(self):
        return _canonical_dumps(self.to_json_dict())

    def content_hash(self):
        """Hex digest identifying the mesh content (vertex coordinates
        round-trip exactly through their decimal representation).
        Computed on the first call and kept: the mesh is immutable."""
        if self._hash is None:
            self._keep_content_hash(self.to_json_dict())
        return self._hash

    def _keep_content_hash(self, json_dict):
        """Hash json_dict, which must be this mesh's own to_json_dict(), as
        the content hash, unless the hash is already kept.  Lets a caller
        that builds the dict anyway avoid building it a second time."""
        if self._hash is None:
            digest = hashlib.sha256(_canonical_dumps(json_dict).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_hash", digest)

    def write_json(self, path):
        with open(path, "w") as fh:
            fh.write(self.canonical_json())

    @classmethod
    def from_json_dict(cls, data):
        vertices = np.asarray(data["vertices"], dtype=np.float64)
        triangles = np.asarray(data["triangles"], dtype=np.int64)
        stored = {}
        for a, b, tag in data["boundary_edges"]:
            stored[(min(a, b), max(a, b))] = str(tag)
        edges, _ = _discover_boundary(triangles)
        if len(edges) != len(stored):
            raise MeshError("stored boundary edges disagree with the triangulation")
        tags = []
        for a, b in edges:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key not in stored:
                raise MeshError(f"stored boundary is missing edge {key}")
            tags.append(stored[key])
        return cls(vertices, triangles, edges, tuple(tags),
                   frozenset(int(i) for i in data.get("singular_vertices", ())))

    @classmethod
    def read_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# -- structured generators ----------------------------------------------


def _split_quads(a, b, c, d):
    """Triangles (a, b, c), (a, c, d) of each counterclockwise quad,
    interleaved quad by quad."""
    return np.stack((np.column_stack((a, b, c)), np.column_stack((a, c, d))),
                    axis=1).reshape(-1, 3)


def build_rectangle(width, height, nx, ny):
    """Structured triangulation of (0,width) x (0,height).

    (nx+1)*(ny+1) vertices, 2*nx*ny triangles; each cell is split along
    its lower-left/upper-right diagonal.  Boundary regions are tagged
    left/right/bottom/top.
    """
    if nx < 1 or ny < 1:
        raise MeshError("rectangle subdivision counts must be >= 1")
    if width <= 0 or height <= 0:
        raise MeshError("rectangle dimensions must be positive")
    xs = width * (np.arange(nx + 1) / nx)
    ys = height * (np.arange(ny + 1) / ny)
    xg, yg = np.meshgrid(xs, ys)  # row-major: index = iy*(nx+1)+ix
    vertices = np.column_stack((xg.ravel(), yg.ravel()))

    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    triangles = _split_quads(v00, v10, v11, v01)

    ix_of = np.tile(np.arange(nx + 1), ny + 1)
    iy_of = np.repeat(np.arange(ny + 1), nx + 1)
    pieces = (
        ("left", ix_of == 0),
        ("right", ix_of == nx),
        ("bottom", iy_of == 0),
        ("top", iy_of == ny),
    )

    def edge_tag(a, b):
        names = [name for name, member in pieces if member[a] and member[b]]
        if len(names) != 1:  # pragma: no cover - structural guarantee
            raise MeshError(f"ambiguous boundary edge ({a}, {b})")
        return names[0]

    return Mesh.from_triangulation(vertices, triangles, edge_tag)


def build_unit_square(n):
    """Structured unit square with n subdivisions per side."""
    return build_rectangle(1.0, 1.0, n, n)


def build_annulus(r_in, r_out, n_radial, n_angular):
    """Polar-grid triangulation of the annulus r_in < r < r_out.

    Radii follow a geometric progression between the two circles so
    fields with a pole at the origin stay resolved near the inner rim.
    The inner and outer loops are tagged "inner" and "outer".  A
    degenerate inner radius is rejected: the puncture itself is not a
    triangulable domain.
    """
    if r_in <= 0.0:
        raise MeshError("annulus requires r_in > 0 (a puncture has empty interior)")
    if r_out <= r_in:
        raise MeshError("annulus requires r_out > r_in")
    if n_radial < 1 or n_angular < 3:
        raise MeshError("annulus requires n_radial >= 1 and n_angular >= 3")

    radii = r_in * (r_out / r_in) ** (np.arange(n_radial + 1) / n_radial)
    radii[0] = r_in
    radii[-1] = r_out
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rr = np.repeat(radii, n_angular)
    tt = np.tile(theta, n_radial + 1)
    vertices = np.column_stack((rr * np.cos(tt), rr * np.sin(tt)))

    ring = np.arange(n_radial)[:, None] * n_angular
    j = np.arange(n_angular)
    a = (ring + j).ravel()
    d = (ring + (j + 1) % n_angular).ravel()
    triangles = _split_quads(a, a + n_angular, d + n_angular, d)

    inner = frozenset(range(n_angular))
    outer = frozenset(range(n_radial * n_angular, (n_radial + 1) * n_angular))

    def edge_tag(a, b):
        if a in inner and b in inner:
            return "inner"
        if a in outer and b in outer:
            return "outer"
        raise MeshError(f"unexpected boundary edge ({a}, {b})")  # pragma: no cover

    return Mesh.from_triangulation(vertices, triangles, edge_tag)


def build_cusp(k, n, ratio=0.7):
    """Triangulated cusp wedge {0 < x < 1, |y| < x**k / 2}.

    The tip at the origin is declared a singular vertex.  Vertex
    abscissas form a geometric sequence toward the tip: n stations per
    grading block of ratio `ratio` (per-station ratio ratio**(1/n)),
    with n blocks in total, and an n-triangle fan closing the tip.
    Boundary regions: "lower", "upper" (the curved sides) and "right"
    (the segment x = 1).
    """
    if k < 1:
        raise MeshError("cusp exponent k must be >= 1")
    if n < 2:
        raise MeshError("cusp resolution n must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise MeshError("grading ratio must lie in (0, 1)")

    q = ratio ** (1.0 / n)
    n_stations = n * n + 1  # n blocks, n stations each, plus x = 1
    xs = q ** np.arange(n_stations)[::-1]  # ascending, from ratio**n to 1
    xs[-1] = 1.0
    m = n  # cross-stream intervals per column

    # Scalar powers on purpose: the array power xs**k differs in the last
    # bit for some (x, k), which would move vertices and the mesh hash.
    half = np.asarray([0.5 * x**k for x in xs])[:, None]
    rows = np.arange(m + 1)
    vertices = np.vstack((
        [(0.0, 0.0)],  # tip
        np.column_stack((
            np.repeat(xs, m + 1), (-half + (2.0 * half) * rows / m).ravel()
        )),
    ))

    def vid(col, row):
        return 1 + col * (m + 1) + row

    r = np.arange(m)
    fan = np.column_stack((np.zeros(m, dtype=np.int64), vid(0, r), vid(0, r + 1)))
    a = vid(np.arange(n_stations - 1)[:, None], r).ravel()
    triangles = np.vstack((fan, _split_quads(a, a + m + 1, a + m + 2, a + 1)))

    lower = {0} | {vid(c, 0) for c in range(n_stations)}
    upper = {0} | {vid(c, m) for c in range(n_stations)}
    right = {vid(n_stations - 1, r) for r in range(m + 1)}
    pieces = (("lower", lower), ("upper", upper), ("right", right))

    def edge_tag(a, b):
        names = [name for name, s in pieces if a in s and b in s]
        if len(names) != 1:  # pragma: no cover - structural guarantee
            raise MeshError(f"ambiguous boundary edge ({a}, {b})")
        return names[0]

    return Mesh.from_triangulation(vertices, triangles, edge_tag,
                                   singular_vertices=(0,))


@dataclass(frozen=True)
class DomainSpec:
    """Validated description of a generatable domain.

    kind is one of "unit_square", "annulus", "cusp".  Only the fields
    relevant to the kind are consulted.  `seed` is accepted for
    interface stability; the generators are deterministic.
    """

    kind: str
    n: int = 8
    r_in: float = 0.1
    r_out: float = 1.0
    n_radial: int = 8
    n_angular: int = 16
    k: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("unit_square", "annulus", "cusp"):
            raise MeshError(f"unknown domain kind {self.kind!r}")
        if self.kind == "unit_square" and self.n < 1:
            raise MeshError("unit_square requires n >= 1")
        if self.kind == "annulus":
            if self.r_in <= 0.0:
                raise MeshError("annulus requires r_in > 0")
            if self.r_out <= self.r_in:
                raise MeshError("annulus requires r_out > r_in")
            if self.n_radial < 1 or self.n_angular < 3:
                raise MeshError("annulus requires n_radial >= 1, n_angular >= 3")
        if self.kind == "cusp":
            if self.k < 1:
                raise MeshError("cusp requires k >= 1")
            if self.n < 2:
                raise MeshError("cusp requires n >= 2")


def build_domain(spec):
    if spec.kind == "unit_square":
        return build_unit_square(spec.n)
    if spec.kind == "annulus":
        return build_annulus(spec.r_in, spec.r_out, spec.n_radial, spec.n_angular)
    return build_cusp(spec.k, spec.n)


# -- refinement -----------------------------------------------------------


def refine(mesh):
    """Uniform red refinement: every triangle splits into 4 similar
    children, every boundary edge into 2 edges inheriting its tag.

    Original vertices keep their indices; the midpoints of the distinct
    edges are appended in first-appearance order (triangle-major, local
    edges (0,1), (1,2), (2,0)), and triangle t's children occupy rows
    4t..4t+3 as (v0, m01, m20), (v1, m12, m01), (v2, m20, m12),
    (m01, m12, m20).  Coarse nodal fields therefore prolong exactly
    (see `prolong`).  The polygonal domain, hence the total area, is
    preserved exactly.  The child records `mesh` as its parent and the
    prolongation matrix of `prolong` (see Mesh).
    """
    pairs, edge_of = _edge_midpoint_order(mesh.triangles)
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[pairs[:, 0]] + mesh.vertices[pairs[:, 1]])
    vertices = np.vstack((mesh.vertices, mids))

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (nv + edge_of).T
    triangles = np.stack((
        np.column_stack((v0, m01, m20)),
        np.column_stack((v1, m12, m01)),
        np.column_stack((v2, m20, m12)),
        np.column_stack((m01, m12, m20)),
    ), axis=1).reshape(-1, 3)

    # The coarse boundary edges are the edges seen once, in the same
    # triangle-major order as mesh.boundary_edges.
    flat = edge_of.ravel()
    parent_of_edge = np.full(len(pairs), -1, dtype=np.int64)
    parent_of_edge[flat[np.bincount(flat)[flat] == 1]] = np.arange(mesh.num_boundary_edges)
    # Each child boundary edge joins an old vertex to a midpoint.
    edges, _ = _discover_boundary(triangles)
    parent = parent_of_edge[edges.max(axis=1) - nv]
    if np.any(parent < 0):  # pragma: no cover - structural guarantee
        raise MeshError("child boundary edge has no parent boundary edge")
    tags = tuple(mesh.boundary_tags[i] for i in parent.tolist())
    child = Mesh(vertices, triangles, edges, tags, mesh.singular_vertices)

    # Identity on the old vertices, the endpoint average on the midpoints.
    mid = nv + np.arange(len(pairs))
    prolongation = csr_matrix(
        (np.r_[np.ones(nv), np.full(2 * len(pairs), 0.5)],
         (np.r_[np.arange(nv), np.repeat(mid, 2)], np.r_[np.arange(nv), pairs.ravel()])),
        shape=(len(vertices), nv),
    )
    object.__setattr__(child, "parent", mesh)
    object.__setattr__(child, "prolongation", prolongation)
    return child


def prolong(mesh, values):
    """Nodal values of a coarse P1 field on refine(mesh).

    Exact interpolation: old vertices keep their values, appended edge
    midpoints take the endpoint average.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.num_vertices,):
        raise MeshError("values must be nodal on the coarse mesh")
    pairs, _ = _edge_midpoint_order(mesh.triangles)
    return np.concatenate((values, 0.5 * (values[pairs[:, 0]] + values[pairs[:, 1]])))


# -- inner metric ---------------------------------------------------------


def _edge_graph(mesh):
    pairs, _ = _edge_midpoint_order(mesh.triangles)
    d = mesh.vertices[pairs[:, 0]] - mesh.vertices[pairs[:, 1]]
    w = np.hypot(d[:, 0], d[:, 1])
    nv = mesh.num_vertices
    return coo_matrix((w, (pairs[:, 0], pairs[:, 1])), shape=(nv, nv)).tocsr()


def inner_metric(mesh, i, j):
    """Shortest edge-path length between vertices i and j.

    Dominates the Euclidean distance; symmetric bit-for-bit because the
    source vertex is canonicalized.  Raises MeshError when no path
    exists (disconnected triangulation).
    """
    nv = mesh.num_vertices
    i, j = int(i), int(j)
    if not (0 <= i < nv and 0 <= j < nv):
        raise MeshError("vertex index out of range")
    if i == j:
        return 0.0
    src, dst = (i, j) if i < j else (j, i)
    dist = _csgraph_dijkstra(_edge_graph(mesh), directed=False, indices=src)
    if not math.isfinite(dist[dst]):
        raise MeshError(f"vertices {i} and {j} are not edge-connected")
    return float(dist[dst])


def path_lengths(mesh, sources, chunk=256):
    """Edge-path distances from each source vertex to every vertex.

    Returns an array of shape (len(sources), nv); sources are processed
    in chunks to bound memory.
    """
    graph = _edge_graph(mesh)
    sources = np.asarray(sources, dtype=np.int64)
    out = np.empty((len(sources), mesh.num_vertices))
    for start in range(0, len(sources), chunk):
        idx = sources[start:start + chunk]
        out[start:start + len(idx)] = _csgraph_dijkstra(
            graph, directed=False, indices=idx
        )
    return out


def max_interior_angle(mesh):
    """Largest interior angle over all triangles, in radians."""
    pts = mesh.vertices[mesh.triangles]
    worst = 0.0
    for i in range(3):
        u = pts[:, (i + 1) % 3] - pts[:, i]
        v = pts[:, (i + 2) % 3] - pts[:, i]
        cosang = np.einsum("td,td->t", u, v) / (
            np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
        )
        worst = max(worst, float(np.arccos(np.clip(cosang, -1.0, 1.0)).max()))
    return worst


# -- boundary partition ---------------------------------------------------


@dataclass(frozen=True)
class BoundaryEdgeView:
    """Read-only view of one boundary edge handed to tagging predicates."""

    index: int
    tail: int
    head: int
    midpoint: np.ndarray
    length: float
    normal: np.ndarray
    tag: str


_REGIONS = ("dirichlet", "neumann")


@dataclass(eq=False)
class BoundaryPartition:
    """Disjoint Dirichlet/Neumann split of the boundary edges.

    edge_regions assigns "dirichlet" or "neumann" to every boundary
    edge of the mesh.  singular_vertices is the finite exceptional set:
    the mesh's declared singular vertices plus every vertex where the
    region changes.  constraint_vertices optionally names a nodal
    constraint set used by trace-constrained minimization.
    """

    mesh: Mesh
    edge_regions: tuple
    singular_vertices: frozenset = frozenset()
    constraint_vertices: frozenset = frozenset()

    def __post_init__(self):
        self.edge_regions = tuple(self.edge_regions)
        if len(self.edge_regions) != self.mesh.num_boundary_edges:
            raise PartitionError("one region per boundary edge required")
        for r in self.edge_regions:
            if r not in _REGIONS:
                raise PartitionError(f"unknown region {r!r}")
        nv = self.mesh.num_vertices
        self.singular_vertices = frozenset(int(i) for i in self.singular_vertices)
        self.constraint_vertices = frozenset(int(i) for i in self.constraint_vertices)
        for i in self.singular_vertices | self.constraint_vertices:
            if not 0 <= i < nv:
                raise PartitionError(f"vertex index {i} out of range")

    def region_edges(self, region):
        """Boundary-edge indices of a region.

        Accepts "dirichlet", "neumann", "boundary" (everything), or any
        mesh-level tag name such as "left" or "outer".
        """
        ne = self.mesh.num_boundary_edges
        if region == "boundary":
            return np.arange(ne, dtype=np.int64)
        if region in _REGIONS:
            return np.asarray(
                [i for i in range(ne) if self.edge_regions[i] == region],
                dtype=np.int64,
            )
        if region in self.mesh.boundary_tags:
            return np.asarray(
                [i for i in range(ne) if self.mesh.boundary_tags[i] == region],
                dtype=np.int64,
            )
        raise PartitionError(f"unknown boundary region {region!r}")

    def region_vertices(self, region):
        """Sorted vertex indices incident to the region's edges."""
        edges = self.region_edges(region)
        if len(edges) == 0:
            return np.asarray([], dtype=np.int64)
        return np.unique(self.mesh.boundary_edges[edges])


def tag_boundary(mesh, rules, constraint_vertices=()):
    """Partition the boundary by geometric predicates.

    rules is a sequence of (predicate, region) pairs with region in
    {"dirichlet", "neumann"}; each predicate receives a
    BoundaryEdgeView.  Every boundary edge must match exactly one rule.
    The singular set is the mesh's declared singular vertices plus all
    vertices where the assigned region changes.
    """
    rules = list(rules)
    for _, region in rules:
        if region not in _REGIONS:
            raise PartitionError(f"rule region must be dirichlet or neumann, got {region!r}")

    midpoints = mesh.edge_midpoints()
    assigned = []
    for idx in range(mesh.num_boundary_edges):
        a, b = (int(x) for x in mesh.boundary_edges[idx])
        view = BoundaryEdgeView(
            index=idx,
            tail=a,
            head=b,
            midpoint=midpoints[idx],
            length=float(mesh.boundary_lengths[idx]),
            normal=mesh.boundary_normals[idx],
            tag=mesh.boundary_tags[idx],
        )
        hits = [region for pred, region in rules if pred(view)]
        where = f"boundary edge {idx} (vertices {a}-{b}, tag {view.tag!r})"
        if not hits:
            raise PartitionError(f"{where} matched no tagging rule")
        if len(hits) > 1:
            raise PartitionError(f"{where} matched {len(hits)} tagging rules")
        assigned.append(hits[0])

    changes = set()
    by_vertex = {}
    for (a, b), region in zip(mesh.boundary_edges, assigned):
        for v in (int(a), int(b)):
            by_vertex.setdefault(v, set()).add(region)
    for v, regions in by_vertex.items():
        if len(regions) > 1:
            changes.add(v)

    return BoundaryPartition(
        mesh=mesh,
        edge_regions=tuple(assigned),
        singular_vertices=frozenset(mesh.singular_vertices) | changes,
        constraint_vertices=frozenset(constraint_vertices),
    )


def partition_by_tags(mesh, dirichlet=(), neumann=(), constraint_vertices=()):
    """Partition the boundary by mesh-level tag names.

    Unknown names are rejected; the two name sets must be disjoint and
    jointly cover every tag present on the mesh.
    """
    dirichlet = set(dirichlet)
    neumann = set(neumann)
    known = set(mesh.boundary_tags)
    for name in (dirichlet | neumann) - known:
        raise PartitionError(f"unknown mesh boundary tag {name!r}; mesh has {sorted(known)}")
    overlap = dirichlet & neumann
    if overlap:
        raise PartitionError(f"tags {sorted(overlap)} assigned to both regions")
    rules = [
        (lambda e, s=dirichlet: e.tag in s, "dirichlet"),
        (lambda e, s=neumann: e.tag in s, "neumann"),
    ]
    return tag_boundary(mesh, rules, constraint_vertices=constraint_vertices)


# -- threshold exponent ---------------------------------------------------

NEG_INF = float("-inf")


def p_threshold(dim_constraint_frontier=NEG_INF, dim_singular=NEG_INF):
    """Threshold exponent 2 - max(declared dimensions).

    The two declared dimensions (of the constraint set's frontier
    inside the boundary, and of the singular set) are caller-supplied
    metadata, each -inf (empty) or an integer below the ambient
    dimension 2.  Returns +inf when both are -inf.
    """
    for name, d in (
        ("dim_constraint_frontier", dim_constraint_frontier),
        ("dim_singular", dim_singular),
    ):
        if d == NEG_INF:
            continue
        if d != int(d) or not 0 <= d <= 1:
            raise ValueError(
                f"{name}={d!r} invalid: must be -inf or an integer in [0, 1]"
            )
    top = max(dim_constraint_frontier, dim_singular)
    if top == NEG_INF:
        return float("inf")
    return 2.0 - float(top)
