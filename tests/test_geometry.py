import math
from collections import Counter

import numpy as np
import pytest

from singfem.geometry import (
    DomainSpec,
    Mesh,
    MeshError,
    PartitionError,
    build_annulus,
    build_cusp,
    build_domain,
    build_rectangle,
    build_unit_square,
    inner_metric,
    max_interior_angle,
    p_threshold,
    partition_by_tags,
    path_lengths,
    prolong,
    refine,
    tag_boundary,
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
def test_cusp_matches_loop_reference(k, n, ratio):
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
    m = build_cusp(k, n, ratio)
    assert np.array_equal(m.vertices, np.asarray(verts))
    assert np.array_equal(m.triangles, np.asarray(tris))


def test_cusp_tip_is_singular():
    m = build_cusp(2.0, 4)
    assert len(m.singular_vertices) == 1
    tip = next(iter(m.singular_vertices))
    assert np.allclose(m.vertices[tip], (0.0, 0.0))
    assert set(m.boundary_tags) == {"lower", "upper", "right"}


def test_domain_spec_validation_and_dispatch():
    assert build_domain(DomainSpec("unit_square", n=3)).num_triangles == 18
    with pytest.raises(MeshError):
        DomainSpec("hexagon")
    with pytest.raises(MeshError):
        DomainSpec("annulus", r_in=-1.0)


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


def test_json_round_trip_preserves_content_hash(tmp_path):
    m = build_cusp(2.0, 4)
    path = tmp_path / "mesh.json"
    m.write_json(path)
    back = Mesh.read_json(path)
    assert back.content_hash() == m.content_hash()
    assert back.boundary_tags == m.boundary_tags
    assert back.singular_vertices == m.singular_vertices


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
    for i, j, k in idx:
        dij = inner_metric(m, i, j)
        assert dij == inner_metric(m, j, i)  # bit-exact symmetry
        assert inner_metric(m, i, i) == 0.0
        euclid = float(np.hypot(*(m.vertices[i] - m.vertices[j])))
        assert dij >= euclid - 1e-12
        assert dij <= inner_metric(m, i, k) + inner_metric(m, k, j) + 1e-12


def test_path_lengths_matches_inner_metric():
    m = build_cusp(2.0, 4)
    sources = np.asarray([0, 5, 17])
    table = path_lengths(m, sources)
    assert table.shape == (3, m.num_vertices)
    for row, s in enumerate(sources):
        for j in (1, 9, m.num_vertices - 1):
            assert table[row, j] == pytest.approx(inner_metric(m, s, j), abs=1e-12)


def test_structured_meshes_are_nonobtuse():
    assert max_interior_angle(build_unit_square(5)) <= math.pi / 2 + 1e-12


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


def test_tag_boundary_requires_exactly_one_rule():
    m = build_unit_square(2)
    with pytest.raises(PartitionError, match="matched no tagging rule"):
        tag_boundary(m, [(lambda e: e.tag == "left", "dirichlet")])
    with pytest.raises(PartitionError, match="matched 2 tagging rules"):
        tag_boundary(
            m,
            [(lambda e: True, "dirichlet"), (lambda e: e.tag == "left", "neumann")],
        )


def test_region_changes_become_singular_vertices():
    m = build_unit_square(2)
    part = partition_by_tags(m, dirichlet=("left",), neumann=("right", "bottom", "top"))
    # the two left corners are shared by edges of different regions
    corners = {
        int(i)
        for i in range(m.num_vertices)
        if tuple(m.vertices[i]) in {(0.0, 0.0), (0.0, 1.0)}
    }
    assert part.singular_vertices == corners


def test_uncovered_tag_is_an_error():
    m = build_unit_square(2)
    with pytest.raises(PartitionError, match="matched no"):
        partition_by_tags(m, dirichlet=("left", "right", "bottom"))


# -- threshold exponent -----------------------------------------------------


def test_p_threshold_table():
    inf = float("inf")
    assert p_threshold() == inf
    assert p_threshold(dim_constraint_frontier=0) == 2.0
    assert p_threshold(dim_singular=0) == 2.0
    assert p_threshold(dim_constraint_frontier=0, dim_singular=0) == 2.0
    assert p_threshold(dim_constraint_frontier=1) == 1.0


def test_p_threshold_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        p_threshold(dim_constraint_frontier=0.5)
    with pytest.raises(ValueError):
        p_threshold(dim_singular=2)
    with pytest.raises(ValueError):
        p_threshold(dim_singular=-1)
