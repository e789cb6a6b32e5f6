import hashlib
import inspect
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from singfem import geometry
from singfem.geometry import (
    Mesh,
    MeshError,
    PartitionError,
    build_annulus,
    build_cusp,
    build_domain,
    build_rectangle,
    build_unit_square,
    partition_by_tags,
    path_lengths,
    prolong,
    refine,
)
from singfem.geometry import (
    _canonical_dumps,
    _discover_boundary,
    _edge_midpoint_order,
    _float_rows_json,
    _int_rows_json,
)


# -- generators -------------------------------------------------------------


def test_unit_square_counts_and_area():
    n = 6
    m = build_unit_square(n)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_triangles == 2 * n * n
    assert m.num_boundary_edges == 4 * n
    assert abs(float(m.areas.sum()) - 1.0) < 1e-12
    assert np.all(m.areas > 0.0)


def test_rectangle_tags_cover_each_side():
    m = build_rectangle(2.0, 1.0, 4, 3)
    counts = Counter(m.boundary_tags)
    assert counts == {"left": 3, "right": 3, "bottom": 4, "top": 4}
    # outward normals are axis-aligned on the structured rectangle
    for idx, tag in enumerate(m.boundary_tags):
        normal = m.boundary_normals[idx]
        expected = {
            "left": (-1.0, 0.0),
            "right": (1.0, 0.0),
            "bottom": (0.0, -1.0),
            "top": (0.0, 1.0),
        }[tag]
        assert np.allclose(normal, expected, atol=1e-14)


def test_rectangle_rejects_bad_parameters():
    with pytest.raises(MeshError):
        build_rectangle(1.0, 1.0, 0, 3)
    with pytest.raises(MeshError):
        build_rectangle(-1.0, 1.0, 2, 2)


def test_annulus_area_and_tags():
    r_in, r_out = 0.25, 1.0
    m = build_annulus(r_in, r_out, 8, 64)
    disk_area = math.pi * (r_out**2 - r_in**2)
    total = float(m.areas.sum())
    # inscribed polygons approximate the disk area from below
    assert total < disk_area
    assert abs(total - disk_area) < 0.01 * disk_area
    assert set(m.boundary_tags) == {"inner", "outer"}
    assert sum(1 for t in m.boundary_tags if t == "inner") == 64


def test_annulus_rejects_degenerate_inner_radius():
    with pytest.raises(MeshError, match="puncture"):
        build_annulus(0.0, 1.0, 4, 12)
    with pytest.raises(MeshError):
        build_annulus(0.5, 0.5, 4, 12)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
def test_cusp_area_oracle(k):
    # |{0 < x < 1, |y| < x^k / 2}| = integral of x^k = 1 / (k + 1)
    m = build_cusp(k, 8)
    exact = 1.0 / (k + 1.0)
    assert abs(float(m.areas.sum()) - exact) < 0.01 * exact


@pytest.mark.parametrize("k, n, ratio", [(1, 2, 0.7), (2.5, 4, 0.6), (3, 6, 0.7), (7.3, 5, 0.5)])
def test_cusp_matches_loop_reference(k, n, ratio, monkeypatch):
    monkeypatch.setattr(geometry, "_CUSP_RATIO", ratio)
    q = ratio ** (1.0 / n)
    xs = q ** np.arange(n * n + 1)[::-1]
    xs[-1] = 1.0
    verts = [(0.0, 0.0)]
    for x in xs:
        half = 0.5 * x**k
        verts += [(x, -half + (2.0 * half) * r / n) for r in range(n + 1)]
    tris = [(0, 1 + r, 2 + r) for r in range(n)]
    for c in range(n * n):
        for r in range(n):
            a = 1 + c * (n + 1) + r
            tris += [(a, a + n + 1, a + n + 2), (a, a + n + 2, a + 1)]
    m = build_cusp(k, n)
    assert np.array_equal(m.vertices, np.asarray(verts))
    assert np.array_equal(m.triangles, np.asarray(tris))


def test_cusp_tip_is_singular():
    m = build_cusp(2.0, 4)
    assert len(m.singular_vertices) == 1
    tip = next(iter(m.singular_vertices))
    assert np.allclose(m.vertices[tip], (0.0, 0.0))
    assert set(m.boundary_tags) == {"lower", "upper", "right"}


def test_build_domain_validation_and_dispatch():
    assert build_domain("unit_square", n=3).num_triangles == 18
    assert build_domain("cusp").content_hash() == build_cusp(1.0, 8).content_hash()
    with pytest.raises(MeshError, match="unknown domain kind 'hexagon'"):
        build_domain("hexagon")
    # the ranges are the generator's to check
    with pytest.raises(MeshError, match="annulus requires r_in > 0"):
        build_domain("annulus", r_in=-1.0)
    # a domain's fields are its generator's parameters
    with pytest.raises(TypeError):
        build_domain("unit_square", k=2.0)
    assert {kind: list(inspect.signature(build).parameters)
            for kind, build in geometry.DOMAINS.items()} == {
        "unit_square": ["n"],
        "annulus": ["r_in", "r_out", "n_radial", "n_angular"],
        "cusp": ["k", "n"],
    }


# -- mesh invariants --------------------------------------------------------


def test_orientation_is_enforced():
    vertices = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        Mesh.from_triangulation(vertices, np.asarray([[0, 2, 1]]), lambda a, b: "x")


def test_nonmanifold_edge_rejected():
    vertices = np.asarray(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -1.0]]
    )
    triangles = np.asarray([[0, 1, 2], [1, 3, 2], [0, 1, 4]])
    # edge (0,1) belongs to triangle 0 and triangle 2 with the same
    # orientation once triangle 2 is flipped to positive area
    with pytest.raises(MeshError):
        Mesh.from_triangulation(vertices, triangles, lambda a, b: "x")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_vertices_are_rejected(literal):
    # NaN areas and a NaN polygon area pass every comparison-based check.
    m = build_unit_square(2)
    vertices = m.vertices.copy()
    vertices[4, 0] = json.loads(literal)
    with pytest.raises(MeshError, match="vertex 4 has a non-finite coordinate"):
        Mesh(vertices, m.triangles, m.boundary_tags)
    text = m.canonical_json().replace("[0.5,0.5]", f"[{literal},0.5]")
    with pytest.raises(MeshError, match="vertex 4 has a non-finite coordinate"):
        Mesh.from_json_dict(json.loads(text))


def test_constructors_discover_the_boundary_once(monkeypatch):
    calls = []
    discover = geometry._discover_boundary
    monkeypatch.setattr(geometry, "_discover_boundary",
                        lambda triangles: calls.append(triangles) or discover(triangles))
    m = build_cusp(3, 3)
    assert len(calls) == 1
    back = Mesh.from_json_dict(m.to_json_dict())
    assert len(calls) == 2
    assert back.content_hash() == m.content_hash()
    assert np.array_equal(back.boundary_tri, m.boundary_tri)


def test_boundary_normals_point_outward():
    m = build_unit_square(3)
    mids = m.edge_midpoints()
    outside = mids + 1e-6 * m.boundary_normals
    inside = mids - 1e-6 * m.boundary_normals
    def contained(p):
        return (0.0 <= p[:, 0]) & (p[:, 0] <= 1.0) & (0.0 <= p[:, 1]) & (p[:, 1] <= 1.0)
    assert not contained(outside).any()
    assert contained(inside).all()


def test_mesh_arrays_are_frozen():
    m = build_unit_square(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 7


def test_mesh_attributes_cannot_be_reassigned():
    m = build_unit_square(2)
    digest = m.content_hash()
    with pytest.raises(AttributeError):
        m.vertices = m.vertices + 1.0
    with pytest.raises(AttributeError):
        m.boundary_tags = ("left",) * m.num_boundary_edges
    with pytest.raises(AttributeError):
        m._hash = None
    assert m.content_hash() == digest == build_unit_square(2).content_hash()


def test_canonical_json_literal():
    m = build_unit_square(1)
    assert m.canonical_json() == (
        '{"boundary_edges":[[0,1,"bottom"],[1,3,"right"],[3,2,"top"],[2,0,"left"]],'
        '"singular_vertices":[],"triangles":[[0,1,3],[0,3,2]],'
        '"vertices":[[0.0,0.0],[1.0,0.0],[0.0,1.0],[1.0,1.0]]}'
    )


def test_json_round_trip_preserves_content_hash():
    m = build_cusp(2.0, 4)
    back = Mesh.from_json_dict(json.loads(m.canonical_json()))
    assert back.content_hash() == m.content_hash()
    assert back.boundary_tags == m.boundary_tags
    assert back.singular_vertices == m.singular_vertices


def _refined(build, levels):
    m = build()
    for _ in range(levels):
        m = refine(m)
    return m


DOMAINS = {
    "unit_square": lambda: build_unit_square(3),
    "rectangle": lambda: build_rectangle(2.0, 1.0, 4, 2),
    "annulus": lambda: build_annulus(0.3, 1.0, 2, 8),
    "cusp": lambda: build_cusp(3, 3),  # declares singular vertex 0
}


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_json_texts_equal_a_direct_encode_of_the_dict(kind, levels):
    m = _refined(DOMAINS[kind], levels)
    canonical = b"".join(m.json_pieces()).decode()
    assert canonical == _canonical_dumps(m.to_json_dict()) == m.canonical_json()
    assert m.content_hash() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert m.content_hash() == hashlib.sha256(
        _canonical_dumps(m.to_json_dict()).encode()).hexdigest()
    assert m.singular_vertices == (frozenset({0}) if kind == "cusp" else frozenset())


def test_json_texts_encode_tags_with_separators_exactly():
    data = build_unit_square(1).to_json_dict()
    data["boundary_edges"] = [[a, b, f"{tag}, part: {i}"]
                              for i, (a, b, tag) in enumerate(data["boundary_edges"])]
    m = Mesh.from_json_dict(data)
    assert b"".join(m.json_pieces()).decode() == _canonical_dumps(data)


# Every digit width 1-19 occurs: 0, 9, 10, 99, 100, ..., 10^j - 1, 10^j,
# ..., 2^63 - 1, plus arbitrary non-negative int64 values.
WIDTH_EDGES = sorted({0, 2**63 - 1} | {10**j - d for j in range(1, 19) for d in (0, 1)})
INT_ROWS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.sampled_from(WIDTH_EDGES), st.integers(0, 2**63 - 1)),
             min_size=k, max_size=k),
    max_size=40).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, k)))


def _json_text(a):
    """The compact json.dumps text of a's list form, encoded: the reference
    the numpy row kernels must match byte for byte."""
    return json.dumps(a.tolist(), separators=(",", ":")).encode()


def _listed(rows):
    """A row kernel's bytes inside the list's brackets."""
    return b"[" + rows + b"]"


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(INT_ROWS)
def test_int_rows_json_is_json_dumps_of_the_list(a):
    assert _listed(_int_rows_json(a)) == _json_text(a)


def test_int_rows_json_covers_every_digit_width():
    column = np.array(WIDTH_EDGES, dtype=np.int64)
    assert {len(str(v)) for v in WIDTH_EDGES} == set(range(1, 20))
    for a in (column[:, None], np.column_stack([column, column[::-1], column % 97])):
        assert _listed(_int_rows_json(a)) == _json_text(a)


# Signed zeros, the smallest subnormal and normal, and the points where
# float.__repr__ switches between fixed and exponent notation.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e-5,
               -1e-4, 9999999999999998.0, 1e16, 1e17, -1e16, 0.1, 1 / 3, 2.0**-53]
FLOATS = st.one_of(st.sampled_from(FLOAT_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def float_rows(draw):
    """(n, k) float64 arrays, n in 1..40 and k in 1..3, whose columns are
    either all distinct draws or a few values heavily repeated."""
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    columns = []
    for _ in range(k):
        if draw(st.booleans()):
            pool = draw(st.lists(FLOATS, min_size=1, max_size=3))
            columns.append([pool[i] for i in draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))])
        else:
            columns.append(draw(st.lists(FLOATS, min_size=n, max_size=n,
                                         unique_by=float.hex)))
    return np.array(columns, dtype=np.float64).T.reshape(n, k)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(float_rows())
def test_float_rows_json_is_json_dumps_of_the_list(a):
    assert _listed(_float_rows_json(a)) == _json_text(a)


def test_float_rows_json_keeps_signed_zeros_and_repr_switch_points_apart():
    column = np.array(FLOAT_EDGES)
    a = np.column_stack([column, column[::-1]])
    assert _listed(_float_rows_json(a)) == _json_text(a)
    assert _float_rows_json(np.array([[0.0, -0.0]])) == b"[0.0,-0.0]"


def test_from_json_dict_rejects_a_dropped_boundary_edge():
    data = build_unit_square(2).to_json_dict()
    data["boundary_edges"].pop()
    with pytest.raises(MeshError, match="stored boundary edges disagree"):
        Mesh.from_json_dict(data)


def test_from_json_dict_rejects_an_interior_edge_in_the_boundary():
    m = build_unit_square(2)
    data = m.to_json_dict()
    boundary = {frozenset(e) for e in m.boundary_edges.tolist()}
    a, b, c = m.triangles[0].tolist()
    interior = next(e for e in ((a, b), (b, c), (c, a)) if frozenset(e) not in boundary)
    data["boundary_edges"][0] = [*interior, data["boundary_edges"][0][2]]
    with pytest.raises(MeshError, match="stored boundary is missing edge"):
        Mesh.from_json_dict(data)


# -- refinement -------------------------------------------------------------


def test_refine_quadruples_and_conserves_area():
    m = build_unit_square(3)
    f = refine(m)
    assert f.num_triangles == 4 * m.num_triangles
    assert f.num_boundary_edges == 2 * m.num_boundary_edges
    assert abs(float(f.areas.sum()) - float(m.areas.sum())) < 1e-12
    assert Counter(f.boundary_tags) == {
        tag: 2 * cnt for tag, cnt in Counter(m.boundary_tags).items()
    }


def test_refine_keeps_coarse_vertices_prefixed():
    m = build_unit_square(2)
    f = refine(m)
    assert np.array_equal(f.vertices[: m.num_vertices], m.vertices)


def test_prolong_reproduces_linear_fields():
    m = build_annulus(0.5, 2.0, 3, 12)
    f = refine(m)
    coarse = 3.0 * m.vertices[:, 0] - 2.0 * m.vertices[:, 1] + 0.25
    fine = prolong(m, coarse)
    expected = 3.0 * f.vertices[:, 0] - 2.0 * f.vertices[:, 1] + 0.25
    assert np.allclose(fine, expected, atol=1e-13)


def _first_appearance_edges(triangles):
    order = {}
    for a, b, c in triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            order.setdefault((min(u, v), max(u, v)), len(order))
    return np.asarray(list(order), dtype=np.int64)


def test_refine_and_prolong_follow_first_appearance_edge_order():
    m = build_cusp(2.0, 3)
    f = refine(m)
    nv = m.num_vertices
    edges = _first_appearance_edges(m.triangles)
    assert f.num_vertices == nv + len(edges)
    mids = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    assert np.array_equal(f.vertices[nv:], mids)

    values = np.random.default_rng(3).standard_normal(nv)
    fine = prolong(m, values)
    assert np.array_equal(fine[:nv], values)
    assert np.array_equal(fine[nv:], 0.5 * (values[edges[:, 0]] + values[edges[:, 1]]))

    mid = {tuple(e): nv + i for i, e in enumerate(edges.tolist())}
    for t, (v0, v1, v2) in enumerate(m.triangles.tolist()):
        m01, m12, m20 = (mid[(min(a, b), max(a, b))]
                         for a, b in ((v0, v1), (v1, v2), (v2, v0)))
        assert f.triangles[4 * t:4 * t + 4].tolist() == [
            [v0, m01, m20], [v1, m12, m01], [v2, m20, m12], [m01, m12, m20]]


# Recorded with the original dict-based refinement; any change to vertex,
# triangle or boundary-edge order under refine changes these digests.
@pytest.mark.parametrize("build, digest", [
    (lambda: build_cusp(3, 6),
     "a33275aa2e65d627670be50555cebfda32e962367776c5faf18a9703ed051a91"),
    (lambda: build_annulus(0.1, 1.0, 8, 16),
     "c1892c9c7c7b652a6c0e37d945373a0d74a30289d2163b960f291368160949a9"),
    (lambda: build_unit_square(8),
     "af2611558014a2521514a311995b7b58b0d625d456e826cb8eb4553d0e417882"),
    (lambda: build_rectangle(2.0, 1.0, 16, 8),
     "b1d6a84c6eb3a2d35a39e3f404b79e694971536aad2582bf0df7d68844ffde02"),
], ids=["cusp", "annulus", "unit_square", "rectangle"])
def test_twice_refined_content_hash_is_pinned(build, digest):
    assert refine(refine(build())).content_hash() == digest


def _boundary_by_loop(triangles):
    """(directed edge, triangle) of every edge seen once, in triangle-major,
    local-edge-minor order."""
    local = [((a, b), (b, c), (c, a)) for a, b, c in triangles.tolist()]
    count = Counter((min(u, v), max(u, v)) for edges in local for u, v in edges)
    return [((u, v), t) for t, edges in enumerate(local) for u, v in edges
            if count[min(u, v), max(u, v)] == 1]


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_refine_boundary_matches_a_per_edge_reference(kind, levels):
    coarse = _refined(DOMAINS[kind], levels - 1)
    child = refine(coarse)
    ref = _boundary_by_loop(child.triangles)
    edges = np.asarray([e for e, _ in ref], dtype=np.int64)
    tri = np.asarray([t for _, t in ref], dtype=np.int64)
    disc_edges, disc_tri = _discover_boundary(child.triangles)
    assert np.array_equal(disc_edges, edges) and np.array_equal(disc_tri, tri)
    assert np.array_equal(child.boundary_edges, edges)
    assert np.array_equal(child.boundary_tri, tri)
    # Each child boundary edge joins a coarse vertex to the midpoint of
    # its parent edge, and inherits that edge's tag.
    nv = coarse.num_vertices
    pairs = _first_appearance_edges(coarse.triangles)
    tag_of = {(min(a, b), max(a, b)): tag
              for (a, b), tag in zip(coarse.boundary_edges.tolist(), coarse.boundary_tags)}
    assert child.boundary_tags == tuple(
        tag_of[tuple(pairs[max(a, b) - nv])] for a, b in edges.tolist())


@pytest.mark.parametrize("build", [
    lambda: build_cusp(3, 6),
    lambda: build_annulus(0.3, 1.0, 4, 16),
    lambda: build_unit_square(5),
], ids=["cusp", "annulus", "unit_square"])
def test_refine_records_the_chain_and_an_exact_prolongation(build):
    m = build()
    f = refine(m)
    assert m.parent is None and m.prolongation is None
    assert f.parent is m
    assert f.prolongation.shape == (f.num_vertices, m.num_vertices)
    values = np.random.default_rng(8).standard_normal(m.num_vertices)
    assert (f.prolongation @ values).tobytes() == prolong(m, values).tobytes()
    assert refine(f).parent is f


# Small unit squares, annuli and cusps: at most 3,665 vertices after two
# refinements.
COARSE_MESHES = st.one_of(
    st.builds(build_unit_square, st.integers(1, 8)),
    st.builds(lambda r_in, factor, n_radial, n_angular:
              build_annulus(r_in, r_in * factor, n_radial, n_angular),
              st.floats(0.05, 1.0), st.floats(1.5, 20.0),
              st.integers(1, 4), st.integers(3, 16)),
    st.builds(build_cusp, st.floats(1.0, 4.0), st.integers(2, 6)),
)
PROPERTIES = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@PROPERTIES
@given(mesh=COARSE_MESHES, levels=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_refine_chain_prolongs_exactly_and_keeps_the_area(mesh, levels, seed):
    rng = np.random.default_rng(seed)
    area = float(mesh.areas.sum())
    for _ in range(levels):
        mesh = refine(mesh)
        v = rng.standard_normal(mesh.parent.num_vertices)
        assert (mesh.prolongation @ v).tobytes() == prolong(mesh.parent, v).tobytes()
        assert abs(float(mesh.areas.sum()) - area) <= 1e-12 * area


def test_mesh_read_back_from_json_has_no_parent():
    f = refine(build_unit_square(3))
    back = Mesh.from_json_dict(f.to_json_dict())
    assert back.parent is None and back.prolongation is None
    assert back.content_hash() == f.content_hash()


def test_prolong_rejects_wrong_length():
    m = build_unit_square(2)
    with pytest.raises(MeshError):
        prolong(m, np.zeros(m.num_vertices + 1))


# -- inner metric -----------------------------------------------------------


def test_inner_metric_axioms():
    m = build_unit_square(4)
    rng = np.random.default_rng(3)
    idx = rng.integers(0, m.num_vertices, size=(25, 3))
    d = path_lengths(m, np.arange(m.num_vertices))
    assert np.all(np.diag(d) == 0.0)
    assert np.allclose(d, d.T, rtol=0.0, atol=1e-12)
    for i, j, k in idx:
        euclid = float(np.hypot(*(m.vertices[i] - m.vertices[j])))
        assert d[i, j] >= euclid - 1e-12
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_path_lengths_matches_inner_metric():
    # rows from a source subset are the full table's rows, and its
    # columns at the sources are the distances back to them
    m = build_cusp(2.0, 4)
    sources = np.asarray([0, 5, 17])
    table = path_lengths(m, sources)
    full = path_lengths(m, np.arange(m.num_vertices))
    assert table.shape == (3, m.num_vertices)
    assert table.tobytes() == full[sources].tobytes()
    assert np.allclose(table, full[:, sources].T, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: refine(refine(build_cusp(3, 4))),
    lambda: refine(refine(build_annulus(0.3, 1.0, 3, 12))),
], ids=["cusp", "annulus"])
def test_path_lengths_equal_undirected_dijkstra_bit_for_bit(build):
    m = build()
    pairs, _ = _edge_midpoint_order(m.triangles)
    d = m.vertices[pairs[:, 0]] - m.vertices[pairs[:, 1]]
    upper = csr_matrix((np.hypot(d[:, 0], d[:, 1]), (pairs[:, 0], pairs[:, 1])),
                       shape=(m.num_vertices, m.num_vertices))
    sources = np.arange(0, m.num_vertices, 7)
    ref = dijkstra(upper, directed=False, indices=sources)
    assert path_lengths(m, sources).tobytes() == ref.tobytes()


def _max_interior_angle(mesh):
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


def test_structured_meshes_are_nonobtuse():
    assert _max_interior_angle(build_unit_square(5)) <= math.pi / 2 + 1e-12


# -- partitions -------------------------------------------------------------


def test_partition_by_tags_regions_and_vertices():
    m = build_unit_square(4)
    part = partition_by_tags(m, dirichlet=("left", "right"), neumann=("bottom", "top"))
    assert len(part.region_edges("dirichlet")) == 8
    assert len(part.region_edges("neumann")) == 8
    assert len(part.region_edges("boundary")) == 16
    assert len(part.region_edges("left")) == 4
    left = part.region_vertices("left")
    assert np.all(m.vertices[left, 0] == 0.0)
    with pytest.raises(PartitionError):
        part.region_edges("front")


def test_partition_by_tags_rejects_bad_names():
    m = build_unit_square(2)
    with pytest.raises(PartitionError, match="unknown mesh boundary tag"):
        partition_by_tags(m, dirichlet=("west",))
    with pytest.raises(PartitionError, match="both regions"):
        partition_by_tags(m, dirichlet=("left",), neumann=("left",))


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("kind", ["unit_square", "annulus", "cusp"])
def test_partition_matches_a_per_edge_reference(kind, levels):
    m = _refined(DOMAINS[kind], levels)
    tags = sorted(set(m.boundary_tags))
    edges = m.boundary_edges.tolist()
    for choice in itertools.product((True, False), repeat=len(tags)):
        dirichlet = [tag for tag, d in zip(tags, choice) if d]
        neumann = [tag for tag, d in zip(tags, choice) if not d]
        part = partition_by_tags(m, dirichlet=dirichlet, neumann=neumann)
        regions = ["dirichlet" if tag in dirichlet else "neumann" for tag in m.boundary_tags]
        assert part.edge_regions == tuple(regions)
        for name in ["dirichlet", "neumann", "boundary", *tags]:
            expected = [i for i in range(len(edges))
                        if name in ("boundary", regions[i], m.boundary_tags[i])]
            got = part.region_edges(name)
            assert got.dtype == np.int64 and got.tolist() == expected
            assert part.region_vertices(name).tolist() == sorted(
                {v for i in expected for v in edges[i]})


def test_uncovered_tag_is_an_error():
    m = build_unit_square(2)
    with pytest.raises(PartitionError, match="matched no"):
        partition_by_tags(m, dirichlet=("left", "right", "bottom"))
