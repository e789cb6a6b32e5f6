"""Triangulated planar domains with tagged boundaries.

Structured generators (rectangle, annulus, cusp wedge), boundary
partitioning into Dirichlet/Neumann regions by tag, uniform red refinement
with its exact prolongation, and the shortest-edge-path inner metric.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra


class MeshError(Exception):
    """A triangulation violates a structural invariant."""


class PartitionError(Exception):
    """Tag lists fail to partition the boundary edges."""


# Relative tolerance for the triangle-area vs. boundary-polygon-area check.
_AREA_RTOL = 1e-9


def _vertex_sum(a):
    """a.sum(axis=1) of an (nt, 3, ...) array to the bit, as column adds in
    the reduction's order ((0 + a0) + a1) + a2 instead of a reduction along
    the length-3 axis.  The zero start turns a -0.0 sum into +0.0."""
    out = a[:, 0] + 0.0
    out += a[:, 1]
    out += a[:, 2]
    return out


def _edge_keys(triangles):
    """(tri_edges, keys, nv): the local edges (0,1), (1,2), (2,0) of every
    triangle in triangle-major order, shape (3 nt, 2), and the key
    lo * nv + hi of each as an undirected edge."""
    triangles = np.asarray(triangles, dtype=np.int64)
    tri_edges = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    nv = np.int64(tri_edges.max() + 1 if tri_edges.size else 0)
    lo = np.minimum(tri_edges[:, 0], tri_edges[:, 1])
    hi = np.maximum(tri_edges[:, 0], tri_edges[:, 1])
    return tri_edges, lo * nv + hi, nv


def _edge_midpoint_order(triangles):
    """Unique undirected triangle edges in first-appearance order.

    Returns (pairs, edge_of): pairs[e] = (lo, hi) is the e-th distinct
    edge in triangle-major, local-edge-minor order (local edges (0,1),
    (1,2), (2,0)), and edge_of[t, j] is the index in pairs of local
    edge j of triangle t.  The ordering fixes the indices of the
    midpoint vertices appended by `refine`, so `prolong` can reproduce
    them without storing parent links.
    """
    _, keys, nv = _edge_keys(triangles)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique sorts by key; rank the distinct edges by first appearance.
    by_appearance = np.argsort(first, kind="stable")
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(by_appearance))
    pairs = np.column_stack(np.divmod(keys[first[by_appearance]], nv))
    return pairs, rank[inverse.ravel()].reshape(-1, 3)


def _canonical_dumps(json_dict):
    """The package's one JSON text form, which every hash and artifact uses:
    sorted keys and compact separators."""
    return json.dumps(json_dict, sort_keys=True, separators=(",", ":"))


def _rows_json(texts):
    """The canonical JSON text of an (n, k) array of numbers, as ASCII
    bytes without the list's outer brackets: the rows and the commas
    between them.

    texts, an (n, k, w) uint8 array, holds each number's ASCII text in w
    bytes; NUL bytes pad the shorter texts and are dropped by
    bytes.translate, whose output is returned as it is.
    """
    # Row layout: "[" then k cells of w bytes + ",", the last cell's ","
    # being "]", then the row's ","; the final row loses its ",".
    n, k, w = texts.shape
    buf = np.empty((n, k * (w + 1) + 2), dtype=np.uint8)
    cells = buf[:, 1:-1].reshape(n, k, w + 1)
    cells[:, :, :w] = texts
    buf[:, 0] = ord("[")
    cells[:, :, w] = ord(",")
    cells[:, -1, w] = ord("]")
    buf[:, -1] = ord(",")
    return buf.reshape(-1)[:-1].tobytes().translate(None, b"\0")


def _int_rows_json(a):
    """_canonical_dumps(a.tolist()) bytes, less the outer brackets (see
    _rows_json), for a 2-D array of non-negative integers,
    written digit by digit in numpy instead of through Python ints.  Every
    value gets w digit slots, w the width of the largest; the leading zeros
    are NUL bytes.  An index array (a mesh's triangles) repeats 0..max:
    their digits are written once, into a table whose rows np.take
    gathers."""
    n, k = a.shape
    top = int(a.max()) if a.size else 0
    w = len(str(top))
    if top < a.size:
        return _rows_json(np.take(_digit_rows(np.arange(top + 1), w), a, axis=0))
    return _rows_json(_digit_rows(a.reshape(-1), w).reshape(n, k, w))


def _digit_rows(x, w):
    """(len(x), w) uint8 rows of the decimal digits of the non-negative
    integers x, right-aligned in w slots, the leading zeros NUL bytes."""
    x = x.astype(np.int64)
    rows = np.empty((len(x), w), dtype=np.uint8)
    for j in range(w - 1, -1, -1):
        np.remainder(x, 10, out=rows[:, j], casting="unsafe")
        rows[:, j] += ord("0")
        if j < w - 1:
            rows[x == 0, j] = 0
        np.floor_divide(x, 10, out=x)
    return rows


def _float_rows_json(a):
    """_canonical_dumps(a.tolist()) bytes, less the outer brackets, for a
    2-D float64 array, by _rows_json.  float.__repr__ runs once per
    distinct value: the values are told apart by their bit patterns (so
    -0.0 stays apart from 0.0), printed in one _canonical_dumps call
    and gathered by index from a NUL-padded table.  Meshes repeat few
    coordinates many times: the 66,049-vertex refined square holds 257
    distinct values."""
    bits, inverse = np.unique(np.ascontiguousarray(a, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    table = np.array(_canonical_dumps(bits.view(np.float64).tolist())[1:-1].split(","),
                     dtype=bytes)
    return _rows_json(np.take(table.view(np.uint8).reshape(-1, table.itemsize),
                              inverse.reshape(a.shape), axis=0))


def _discover_boundary(triangles):
    """Directed boundary edges in triangle-major, local-edge-minor order.

    Returns (edges, tri_index) where each directed edge keeps the
    orientation of the unique triangle containing it, so the domain
    lies on its left.
    """
    tri_edges, keys, _ = _edge_keys(triangles)
    # A boundary edge is one whose key occurs once.
    order = np.argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    shared = np.zeros(len(keys), dtype=bool)
    shared[order[1:][same]] = True
    shared[order[:-1][same]] = True
    on_boundary = ~shared
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
    boundary_tags : tuple of str
        Region name of each boundary edge, aligned with boundary_edges
        (use `from_triangulation` to build).
    singular_vertices : frozenset of int
        Vertex indices declared as singular frontier points.

    Derived arrays (areas, barycentric gradients, and the boundary: its
    directed edges in triangle-major discovery order with the domain on
    their left, their normals, lengths and adjacent triangles) are
    computed at construction; all arrays are frozen and no attribute can
    be reassigned afterwards, so the content hash is computed at most once.

    A mesh made by `refine` also records its refinement chain: `parent`
    is the coarse mesh and `prolongation` the sparse (nv, parent nv)
    matrix P with P @ v == prolong(parent, v).  Other meshes, including
    those read back from JSON, have neither; neither enters the JSON form
    or the content hash.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_tags: tuple
    singular_vertices: frozenset = frozenset()
    _: KW_ONLY
    # (boundary_edges, boundary_tri) when the caller has already discovered
    # them to line up the tags; None discovers them here.
    _boundary: InitVar[tuple | None] = None
    areas: np.ndarray = field(init=False, repr=False)
    grad_lambda: np.ndarray = field(init=False, repr=False)
    boundary_edges: np.ndarray = field(init=False, repr=False)
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

    def __post_init__(self, _boundary):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_tags = tuple(str(t) for t in self.boundary_tags)
        self.singular_vertices = frozenset(int(i) for i in self.singular_vertices)

        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        bad = np.nonzero(~np.isfinite(self.vertices).all(axis=1))[0]
        if bad.size:
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate "
                            f"{self.vertices[bad[0]].tolist()}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        nv = len(self.vertices)
        if self.triangles.size and (self.triangles.min() < 0 or self.triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")
        for i in self.singular_vertices:
            if not 0 <= i < nv:
                raise MeshError(f"singular vertex index {i} out of range")

        # P1 barycentric gradients: grad lambda_i = perp(e_i) / (2A), with the
        # edge vector e_i = p_{i+2} - p_{i+1} and perp(v) = (-v_y, v_x).  gl
        # holds perp(e_i) until the division.  The subtractions read one
        # (3, nt) gather per coordinate: the same differences as strided reads
        # of one (nt, 3, 2) gather, bit for bit, in a third of the time.
        # gl before the gathers: allocated the other way round, laplace_refined's
        # first-command peak resident set read 2 MB higher for 7 of 16 hash
        # seeds instead of 1 (the heap layout the freed gather leaves).
        gl = np.empty((len(self.triangles), 3, 2))
        xs = self.vertices[:, 0][self.triangles.T]
        ys = self.vertices[:, 1][self.triangles.T]
        for i in range(3):
            np.subtract(ys[(i + 2) % 3], ys[(i + 1) % 3], out=gl[:, i, 0])
            np.subtract(xs[(i + 2) % 3], xs[(i + 1) % 3], out=gl[:, i, 1])
        np.negative(gl[:, :, 0], out=gl[:, :, 0])
        del xs, ys
        # A = (p1 - p0) x (p2 - p0) / 2 with p1 - p0 = e_2 and p2 - p0 = -e_1:
        # the same two products and difference, read from gl.
        areas = gl[:, 2, 1] * gl[:, 1, 0]
        areas -= gl[:, 2, 0] * gl[:, 1, 1]
        areas *= 0.5
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(
                f"triangle {bad[0]} has non-positive area {areas[bad[0]]:.3e}; "
                "triangles must be counterclockwise and non-degenerate"
            )
        self.areas = areas
        gl /= (2.0 * areas)[:, None, None]
        self.grad_lambda = gl

        self.boundary_edges, self.boundary_tri = (
            _discover_boundary(self.triangles) if _boundary is None else _boundary)
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise MeshError("one tag required per boundary edge")

        tails = self.boundary_edges[:, 0]
        heads = self.boundary_edges[:, 1]
        if len(np.unique(tails)) != len(tails) or len(np.unique(heads)) != len(heads):
            raise MeshError("boundary edges do not form simple closed loops")
        if set(tails.tolist()) != set(heads.tolist()):
            raise MeshError("boundary edges do not close up")

        pt = self.vertices[tails]
        ph = self.vertices[heads]
        d = ph - pt
        lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(lengths <= 0.0):
            raise MeshError("zero-length boundary edge")
        self.boundary_lengths = lengths
        # Outward unit normal: rotate the CCW edge direction clockwise.
        self.boundary_normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]

        # Sum of element areas must reproduce the shoelace area of the
        # boundary polygon (loops oriented with the domain on the left).
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
        edges, tri = _discover_boundary(triangles)
        tags = tuple(edge_tag(int(a), int(b)) for a, b in edges)
        return cls(vertices, triangles, tags, frozenset(singular_vertices),
                   _boundary=(edges, tri))

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
        centroid = _vertex_sum(self.vertices[self.triangles])
        centroid /= 3.0  # as mean(axis=1) divides its sum
        return centroid

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

    def json_pieces(self):
        """to_json_dict() as canonical JSON text (sorted keys, compact
        separators): a list of ASCII bytes pieces (keys and brackets, then
        each value) whose join is _canonical_dumps(to_json_dict()).  The
        number lists are encoded in numpy: the triangles by _int_rows_json,
        the vertices by _float_rows_json (one float repr per distinct
        coordinate); json encodes only the boundary edges and singular
        vertices.  No piece is joined or decoded.

        content_hash feeds the pieces one by one to a single sha256, and an
        artifact embeds them as they are under "mesh".
        """
        edges = [[a, b, tag]
                 for (a, b), tag in zip(self.boundary_edges.tolist(), self.boundary_tags)]
        pieces = [b'{"boundary_edges":', _canonical_dumps(edges).encode(),
                  b',"singular_vertices":',
                  _canonical_dumps(sorted(self.singular_vertices)).encode(),
                  b',"triangles":[', _int_rows_json(self.triangles),
                  b'],"vertices":[', _float_rows_json(self.vertices), b"]}"]
        if self._hash is None:
            digest = hashlib.sha256()
            for piece in pieces:
                digest.update(piece)
            object.__setattr__(self, "_hash", digest.hexdigest())
        return pieces

    def canonical_json(self):
        return b"".join(self.json_pieces()).decode("ascii")

    def content_hash(self):
        """Hex digest (sha256) of canonical_json(), which identifies the
        mesh content (vertex coordinates round-trip exactly through their
        decimal representation).  Computed on the first call and kept: the
        mesh is immutable."""
        if self._hash is None:
            self.json_pieces()
        return self._hash

    @classmethod
    def from_json_dict(cls, data):
        vertices = np.asarray(data["vertices"], dtype=np.float64)
        triangles = np.asarray(data["triangles"], dtype=np.int64)
        stored = {}
        for a, b, tag in data["boundary_edges"]:
            stored[(min(a, b), max(a, b))] = str(tag)
        edges, tri = _discover_boundary(triangles)
        if len(edges) != len(stored):
            raise MeshError("stored boundary edges disagree with the triangulation")
        tags = []
        for a, b in edges:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key not in stored:
                raise MeshError(f"stored boundary is missing edge {key}")
            tags.append(stored[key])
        return cls(vertices, triangles, tuple(tags),
                   frozenset(int(i) for i in data.get("singular_vertices", ())),
                   _boundary=(edges, tri))


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


def build_unit_square(n=8):
    """Structured unit square with n subdivisions per side."""
    return build_rectangle(1.0, 1.0, n, n)


def build_annulus(r_in=0.1, r_out=1.0, n_radial=8, n_angular=16):
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


# The cusp's grading: each block of stations shrinks x by this factor.
_CUSP_RATIO = 0.7


def build_cusp(k=1.0, n=8):
    """Triangulated cusp wedge {0 < x < 1, |y| < x**k / 2}.

    The tip at the origin is declared a singular vertex.  Vertex
    abscissas form a geometric sequence toward the tip: n stations per
    grading block of ratio _CUSP_RATIO (per-station ratio
    _CUSP_RATIO**(1/n)),
    with n blocks in total, and an n-triangle fan closing the tip.
    Boundary regions: "lower", "upper" (the curved sides) and "right"
    (the segment x = 1).
    """
    if k < 1:
        raise MeshError("cusp exponent k must be >= 1")
    if n < 2:
        raise MeshError("cusp resolution n must be >= 2")

    q = _CUSP_RATIO ** (1.0 / n)
    n_stations = n * n + 1  # n blocks, n stations each, plus x = 1
    xs = q ** np.arange(n_stations)[::-1]  # ascending, from _CUSP_RATIO**n to 1
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


# The generatable domains: each kind's generator, whose keyword parameters
# and defaults are the domain's fields.
DOMAINS = {
    "unit_square": build_unit_square,
    "annulus": build_annulus,
    "cusp": build_cusp,
}


def build_domain(kind, **params):
    """The mesh of DOMAINS[kind](**params); MeshError for an unknown kind
    and, from the generator, for a field out of range."""
    if kind not in DOMAINS:
        raise MeshError(f"unknown domain kind {kind!r}")
    return DOMAINS[kind](**params)


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

    # Coarse boundary edge k is local edge j of triangle t = boundary_tri[k].
    # Its halves are local edge 0 of child 4t + j and local edge 2 of child
    # 4t + (j + 1) % 3; sorting by 3 * child + local edge puts them in the
    # child's triangle-major discovery order, so they are the child's
    # boundary as _discover_boundary would find it, and each half takes its
    # parent edge's tag.
    t = mesh.boundary_tri
    j = np.argmax(mesh.triangles[t] == mesh.boundary_edges[:, :1], axis=1)
    child_of = np.concatenate((4 * t + j, 4 * t + (j + 1) % 3))
    local = np.repeat(np.array([0, 2]), len(t))
    order = np.argsort(3 * child_of + local)
    tri, local = child_of[order], local[order]
    edges = np.column_stack((triangles[tri, local], triangles[tri, (local + 1) % 3]))
    tags = tuple(mesh.boundary_tags[i] for i in (order % len(t)).tolist())
    child = Mesh(vertices, triangles, tags, mesh.singular_vertices, _boundary=(edges, tri))

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
    """Edge lengths as a symmetric CSR graph, so that Dijkstra can run it
    as directed and skip building the transpose on every call."""
    pairs, _ = _edge_midpoint_order(mesh.triangles)
    d = mesh.vertices[pairs[:, 0]] - mesh.vertices[pairs[:, 1]]
    w = np.hypot(d[:, 0], d[:, 1])
    nv = mesh.num_vertices
    lo, hi = pairs.T
    return coo_matrix((np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])),
                      shape=(nv, nv)).tocsr()


def path_lengths(mesh, sources):
    """Edge-path distances from each source vertex to every vertex, an
    array of shape (len(sources), nv)."""
    return _csgraph_dijkstra(_edge_graph(mesh), directed=True,
                             indices=np.asarray(sources, dtype=np.int64))


def mesh_size(mesh):
    """Longest triangle edge (the mesh size h)."""
    p = mesh.vertices[mesh.triangles]
    sides = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.max(np.hypot(sides[:, 0], sides[:, 1])))


# -- boundary partition ---------------------------------------------------


_REGIONS = ("dirichlet", "neumann")


@dataclass(eq=False)
class BoundaryPartition:
    """Disjoint Dirichlet/Neumann split of the boundary edges.

    edge_regions assigns "dirichlet" or "neumann" to every boundary
    edge of the mesh.
    """

    mesh: Mesh
    edge_regions: tuple

    def __post_init__(self):
        self.edge_regions = tuple(self.edge_regions)
        if len(self.edge_regions) != self.mesh.num_boundary_edges:
            raise PartitionError("one region per boundary edge required")
        for r in self.edge_regions:
            if r not in _REGIONS:
                raise PartitionError(f"unknown region {r!r}")

    def region_edges(self, region):
        """Boundary-edge indices of a region, ascending.

        Accepts "dirichlet", "neumann", "boundary" (everything), or any
        mesh-level tag name such as "left" or "outer".
        """
        if region == "boundary":
            return np.arange(self.mesh.num_boundary_edges, dtype=np.int64)
        if region in _REGIONS:
            names = self.edge_regions
        elif region in self.mesh.boundary_tags:
            names = self.mesh.boundary_tags
        else:
            raise PartitionError(f"unknown boundary region {region!r}")
        return np.nonzero(np.asarray(names) == region)[0]

    def region_vertices(self, region):
        """Sorted vertex indices incident to the region's edges."""
        edges = self.region_edges(region)
        if len(edges) == 0:
            return np.asarray([], dtype=np.int64)
        return np.unique(self.mesh.boundary_edges[edges])


def partition_by_tags(mesh, dirichlet=(), neumann=()):
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
    uncovered = known - dirichlet - neumann
    if uncovered:
        raise PartitionError(f"mesh boundary tags {sorted(uncovered)} matched no region; "
                             "each must be dirichlet or neumann")
    edge_regions = tuple("dirichlet" if tag in dirichlet else "neumann"
                         for tag in mesh.boundary_tags)
    return BoundaryPartition(mesh=mesh, edge_regions=edge_regions)
