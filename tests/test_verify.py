import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from singfem import (
    Report,
    ScalarField,
    build_annulus,
    build_cusp,
    build_unit_square,
    convergence_study,
    counterexample_punctured,
    fit_rate,
    holder_exponent,
    holder_regression,
    partition_by_tags,
    poincare_constant_2,
    poincare_lower_bound_p,
    refine,
    write_report_csv,
    write_report_json,
)
from singfem import fem, laplace, verify
from singfem.geometry import path_lengths
from singfem.fem import mass_matrix, stiffness_matrix
from singfem.verify import _pw_quotient


# -- report plumbing -------------------------------------------------------------


def test_report_validates_column_lengths():
    with pytest.raises(ValueError, match="entries"):
        Report("exp", {}, [0, 1], {"h": [0.1]})
    rep = Report("exp", {}, [0], {"h": [0.1]}, passed={"a": True, "b": False})
    assert not rep.all_passed


def test_fit_rate_recovers_synthetic_slope():
    hs = [0.5, 0.25, 0.125, 0.0625]
    errors = [3.0 * h**2.5 for h in hs]
    assert fit_rate(hs, errors) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(hs, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([-0.5, 0.25, 0.125, 0.0625], errors)


def test_report_writers_round_trip_and_rerun_bit_identical(tmp_path):
    rep = Report(
        experiment="demo",
        params={"p": 3.0, "schedule": (1, 2)},
        levels=[0, 1],
        measurements={"h": [0.5, 0.25], "error": [1.0 / 3.0, 0.1 + 0.2]},
        fitted={"rate": 1.7369655941662063},
        passed={"ok": True},
        tolerances={"rate": "~2"},
    )
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(rep, csv1, config_hash="cafe")
    write_report_csv(rep, csv2, config_hash="cafe")
    assert csv1.read_bytes() == csv2.read_bytes()
    lines = csv1.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe"
    assert lines[1] == "level,h,error"
    # repr cells reparse to the exact stored doubles
    assert float(lines[2].split(",")[2]) == 1.0 / 3.0
    assert float(lines[3].split(",")[2]) == 0.1 + 0.2

    jpath = tmp_path / "r.json"
    write_report_json(rep, jpath, config_hash="cafe")
    payload = json.loads(jpath.read_text())
    assert payload["experiment"] == "demo"
    assert payload["pass"] is True
    assert payload["passed"] == {"ok": True}
    assert payload["config_hash"] == "cafe"
    assert payload["params"]["schedule"] == [1, 2]
    assert payload["fitted_value"]["rate"] == 1.7369655941662063


# -- Poincare constants ----------------------------------------------------------


def test_wirtinger_constant_close_below_continuum():
    mesh = build_unit_square(8)
    c = poincare_constant_2(mesh)
    exact = 1.0 / math.pi
    assert c <= exact * (1.0 + 1e-10)
    assert abs(c - exact) <= 0.05 * exact
    finer = poincare_constant_2(refine(mesh))
    assert finer >= c  # nested spaces only enlarge the Rayleigh supremum
    assert finer <= exact * (1.0 + 1e-10)


def test_trace_constant_matches_first_dirichlet_mode():
    mesh = build_unit_square(8)
    part = partition_by_tags(mesh, dirichlet=("left", "right", "bottom", "top"))
    c = poincare_constant_2(mesh, mode="trace", partition=part, region="dirichlet")
    exact = 1.0 / (math.sqrt(2.0) * math.pi)
    assert c <= exact * (1.0 + 1e-10)
    assert abs(c - exact) <= 0.03 * exact


def test_poincare_mode_errors():
    mesh = build_unit_square(4)
    with pytest.raises(ValueError, match="unknown mode"):
        poincare_constant_2(mesh, mode="fancy")
    with pytest.raises(ValueError, match="trace mode needs"):
        poincare_constant_2(mesh, mode="trace")
    part = partition_by_tags(mesh, neumann=("left", "right", "bottom", "top"))
    with pytest.raises(ValueError, match="no vertices"):
        poincare_constant_2(mesh, mode="trace", partition=part, region="dirichlet")


@pytest.mark.parametrize("mode", ["wirtinger", "trace"])
def test_poincare_constant_matches_a_sparse_eigen_solve(mode, monkeypatch):
    mesh = build_unit_square(4)
    for _ in range(3):
        mesh = refine(mesh)
    part = partition_by_tags(mesh, dirichlet=("left",), neumann=("right", "bottom", "top"))
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)  # MG-PCG, not the band
    iterations = []
    cg = laplace.conjugate_gradient

    def counted(*args, **kwargs):
        x, its = cg(*args, **kwargs)
        iterations.append(its)
        return x, its

    monkeypatch.setattr(laplace, "conjugate_gradient", counted)
    c = poincare_constant_2(mesh, mode=mode, partition=part, region="dirichlet")

    K = stiffness_matrix(mesh).tocsc()
    M = mass_matrix(mesh).tocsc()
    if mode == "wirtinger":
        # the pencil is singular (constants); shift-invert about -1
        lam = np.sort(eigsh(K, k=2, M=M, sigma=-1.0, return_eigenvectors=False))[1]
    else:
        free = np.setdiff1d(np.arange(mesh.num_vertices), part.region_vertices("dirichlet"))
        K, M = K[free][:, free], M[free][:, free]
        lam = eigsh(K, k=1, M=M, sigma=0.0, return_eigenvectors=False)[0]
    assert c == pytest.approx(1.0 / math.sqrt(lam), rel=1e-6)
    assert iterations and max(iterations) <= 25


def test_lower_bound_p2_agrees_with_eigen_solve():
    mesh = build_unit_square(8)
    c2 = poincare_constant_2(mesh)
    lb = poincare_lower_bound_p(mesh, 2.0)
    assert lb == pytest.approx(c2, rel=1e-4)


@pytest.mark.parametrize("build, bound", [
    (lambda: build_unit_square(8), 0.3163136635974689),
    (lambda: refine(refine(build_unit_square(4))), 0.3178022650932866),
])
def test_lower_bound_p2_builds_its_solver_once(build, bound, monkeypatch):
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)  # MG-PCG, not the band
    builds = _count_solvers(monkeypatch)
    # the bound an MG-PCG solver rebuilt on every ascent step gives, to the bit
    assert poincare_lower_bound_p(build(), 2.0) == bound
    assert len(builds) == 1


def _count_solvers(monkeypatch):
    builds, init = [], laplace._FreeBlockSolver.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(laplace._FreeBlockSolver, "__init__", counted)
    return builds


@pytest.mark.parametrize("run", [
    lambda mesh: poincare_constant_2(mesh),
    lambda mesh: poincare_lower_bound_p(mesh, 2.0, seeds=(0,), iters=10),
    lambda mesh: poincare_lower_bound_p(mesh, 4.0, seeds=(0,), iters=10),
], ids=["constant_2", "lower_bound_p2", "lower_bound_p4"])
def test_poincare_routines_build_one_solver(run, monkeypatch):
    builds = _count_solvers(monkeypatch)
    assert run(refine(build_unit_square(4))) > 0.0
    assert len(builds) == 1


@pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
def test_best_shift_minimizes_like_scipy(p):
    from scipy.optimize import minimize_scalar

    mesh = refine(build_cusp(3.0, 4))
    values = np.random.default_rng(9).standard_normal(mesh.num_vertices) ** 3
    cent = values[mesh.triangles].mean(axis=1)

    def objective(a):
        return float(np.sum(mesh.areas * np.abs(cent - a) ** p))

    ref = minimize_scalar(objective, bounds=(float(cent.min()), float(cent.max())),
                          method="bounded", options={"xatol": 1e-12})
    a, norm = verify._best_shift(mesh, values, p)
    assert objective(a) <= objective(ref.x) * (1.0 + 1e-12)
    if p > 1.0:  # strictly convex: one minimizer
        assert a == pytest.approx(ref.x, abs=1e-7)
    assert norm == fem.lp_norm(fem.ScalarField(mesh, values - a), p)


def test_lower_bound_keeps_best_and_returns_its_field():
    mesh = build_unit_square(8)
    affine = mesh.vertices[:, 0].copy()
    q_affine = _pw_quotient(mesh, affine - affine.mean(), 4.0)
    lb, fld = poincare_lower_bound_p(
        mesh, 4.0, seeds=(0,), iters=10, inits=[affine], return_field=True
    )
    assert lb >= q_affine - 1e-14
    # the claimed bound is the quotient of the returned field, re-evaluated
    assert _pw_quotient(mesh, fld, 4.0) == pytest.approx(lb, rel=1e-12)


def test_lower_bound_rejects_bad_exponent():
    mesh = build_unit_square(4)
    with pytest.raises(ValueError):
        poincare_lower_bound_p(mesh, 0.5)


# -- punctured counterexample ----------------------------------------------------


def test_counterexample_requires_supercritical_p():
    with pytest.raises(ValueError, match="2"):
        counterexample_punctured(2.0)


def test_counterexample_flux_survives_shrinking_puncture():
    rep = counterexample_punctured(3.0, levels=2)
    assert rep.all_passed
    two_pi = 2.0 * math.pi
    finest = [
        abs(rep.measurements["residual"][i])
        for i in range(len(rep.levels))
        if rep.levels[i] == max(rep.levels)
    ]
    assert len(finest) == 2  # one per scheduled inner radius
    for v in finest:
        assert abs(v - two_pi) <= 0.05 * two_pi
    assert rep.params["r1"] == pytest.approx(2e-3)
    assert set(rep.measurements) >= {
        "h", "r_in", "residual", "abs_residual", "beta_pprime_pow", "beta_l2_sq",
    }


# -- Holder estimation -----------------------------------------------------------


def test_holder_exponent_of_lipschitz_field():
    mesh = build_unit_square(32)
    u = ScalarField.from_function(mesh, lambda x, y: x)
    alpha, r2 = holder_exponent(mesh, u, n_pairs=2000, seed=0)
    assert 0.9 <= alpha <= 1.1
    assert r2 >= 0.9


def test_holder_exponent_of_square_root_field():
    mesh = build_unit_square(32)
    u = ScalarField.from_function(mesh, lambda x, y: np.sqrt(np.hypot(x, y)))
    alpha, r2 = holder_exponent(mesh, u, n_pairs=2000, seed=0)
    assert 0.4 <= alpha <= 0.6
    assert r2 >= 0.9


def test_holder_constant_field_has_no_claim():
    mesh = build_unit_square(8)
    alpha, r2 = holder_exponent(mesh, ScalarField.constant(mesh, 4.0))
    assert math.isnan(alpha)
    assert r2 == 0.0


def test_holder_regression_inputs_are_affine_invariant():
    mesh = build_unit_square(16)
    u = ScalarField.from_function(mesh, lambda x, y: np.sqrt(np.hypot(x, y)))
    v = ScalarField(mesh, -3.7 * u.values + 11.0)
    tu = holder_regression(mesh, u, n_pairs=1500, seed=3)
    tv = holder_regression(mesh, v, n_pairs=1500, seed=3)
    for key in ("pair_i", "pair_j", "pair_dist", "bin_of_pair", "bin_logd_at_max"):
        assert np.array_equal(tu[key], tv[key])
    au, _ = holder_exponent(mesh, u, n_pairs=1500, seed=3)
    av, _ = holder_exponent(mesh, v, n_pairs=1500, seed=3)
    assert au == pytest.approx(av, abs=1e-9)


class _TargetRecorder(np.random.Generator):
    """default_rng stand-in that records every uniform draw (the targets)."""

    draws = []

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))

    def uniform(self, *args, **kwargs):
        out = super().uniform(*args, **kwargs)
        _TargetRecorder.draws.append(out)
        return out


@pytest.mark.parametrize("build", [
    lambda: refine(build_cusp(3.0, 4)),
    lambda: refine(build_annulus(0.3, 1.0, 3, 12)),
], ids=["cusp", "annulus"])
@pytest.mark.parametrize("n_pairs", [100, 1200])
def test_holder_pairs_lie_in_their_draw_windows(monkeypatch, build, n_pairs):
    mesh = build()
    values = np.sin(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 1]
    _TargetRecorder.draws = []
    monkeypatch.setattr(np.random, "default_rng", _TargetRecorder)
    i, j, dist = verify._holder_sample_pairs(mesh, values, n_pairs, seed=5)
    monkeypatch.undo()

    assert len(i) == len(j) == len(dist) == n_pairs
    assert np.all(i != j)
    table = path_lengths(mesh, i)
    assert dist.tobytes() == table[np.arange(n_pairs), j].tobytes()

    # One target per pair, anchored or random, drawn in pair order.
    targets = np.concatenate(_TargetRecorder.draws)
    assert len(targets) == n_pairs
    half = 0.5 * math.log10(2.0)
    for k, t in enumerate(targets):
        row = table[k]
        logd = np.log10(row[row > 0.0])
        got = math.log10(dist[k])
        in_window = (logd >= t - half) & (logd <= t + half)
        if in_window.any():
            assert t - half <= got <= t + half
        else:
            assert abs(got - t) == np.abs(logd - t).min()


@pytest.mark.parametrize("n_pairs, max_rows, per_source", [(1200, 32, 30), (100, 12, 8)])
def test_holder_pairs_take_isqrt_pairs_per_random_source(monkeypatch, n_pairs, max_rows,
                                                          per_source):
    mesh = refine(build_cusp(3.0, 6))
    values = mesh.vertices[:, 1].copy()
    rows = []

    def counting(mesh, sources):
        rows.append(len(sources))
        return path_lengths(mesh, sources)

    monkeypatch.setattr(verify, "path_lengths", counting)
    i, _, _ = verify._holder_sample_pairs(mesh, values, n_pairs, seed=11)
    assert len(rows) == 1 and rows[0] <= max_rows
    random_i = i[2 * (n_pairs // 8):]
    runs = np.diff(np.flatnonzero(np.r_[True, random_i[1:] != random_i[:-1], True]))
    assert runs[:-1].max() <= per_source and runs.sum() == len(random_i)
    assert len(runs) <= -(-len(random_i) // per_source)


def _pairs_by_mask(mesh, values, n_pairs, seed):
    """Reference sampler: 8 pairs per source, each pair drawn by masking the
    whole source row (the window's vertices in id order)."""
    rng = np.random.default_rng(seed)
    nv = mesh.num_vertices
    anchors = sorted({int(np.argmin(values)), int(np.argmax(values))})
    n_anchor = max(1, n_pairs // 8)
    budget = [(a, n_anchor) for a in anchors]
    n_random = n_pairs - n_anchor * len(anchors)
    while n_random > 0:
        take = min(8, n_random)
        budget.append((int(rng.integers(0, nv)), take))
        n_random -= take
    out = []
    for s, count in budget:
        row = path_lengths(mesh, [s])[0]
        positive = row[row > 0.0]
        hi = math.log10(float(positive.max()))
        half_window = 0.5 * math.log10(2.0)
        lo = min(math.log10(3.0 * float(positive.min())) + half_window, hi - 0.1)
        logd = np.where(row > 0.0, np.log10(np.maximum(row, 1e-300)), np.inf)
        for t in rng.uniform(lo, hi, size=count):
            cands = np.nonzero(np.abs(logd - t) <= half_window)[0]
            if len(cands) == 0:
                target = int(np.argmin(np.abs(logd - t)))
            else:
                target = int(cands[rng.integers(0, len(cands))])
            out.append((s, target, float(row[target])))
    i, j, d = zip(*out)
    return np.asarray(i), np.asarray(j), np.asarray(d)


@pytest.mark.parametrize("build", [
    lambda: refine(build_cusp(3.0, 4)),
    lambda: refine(build_annulus(0.3, 1.0, 3, 12)),
    lambda: build_cusp(3.0, 3),
], ids=["cusp", "annulus", "coarse-cusp"])
@pytest.mark.parametrize("n_pairs", [10, 40, 100, 106])
def test_small_holder_budgets_draw_the_pairs_of_the_mask_reference(build, n_pairs):
    # Up to 80 random pairs the source rule gives 8 pairs per source, and
    # the sorted windows must pick exactly what masking the row picks.
    mesh = build()
    values = np.sin(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 1]
    for seed in range(4):
        got = verify._holder_sample_pairs(mesh, values, n_pairs, seed)
        for a, b in zip(got, _pairs_by_mask(mesh, values, n_pairs, seed)):
            assert a.tobytes() == b.astype(a.dtype).tobytes()


def test_holder_pairs_are_deterministic_in_the_seed():
    mesh = refine(build_annulus(0.3, 1.0, 3, 12))
    values = mesh.vertices[:, 0] ** 2
    first = verify._holder_sample_pairs(mesh, values, 1200, seed=9)
    again = verify._holder_sample_pairs(mesh, values, 1200, seed=9)
    other = verify._holder_sample_pairs(mesh, values, 1200, seed=10)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    assert not np.array_equal(first[1], other[1])


# -- convergence studies ---------------------------------------------------------


def test_study_rejects_unknown_problem_and_short_ladders():
    with pytest.raises(ValueError, match="unknown study"):
        convergence_study("mystery")
    with pytest.raises(ValueError, match="at least 3"):
        convergence_study("ibp_smooth", levels=2)


def test_manufactured_dirichlet_study():
    rep = convergence_study("manufactured_dirichlet", levels=3, base_n=4)
    assert rep.all_passed
    assert abs(rep.fitted["rate"] - 2.0) <= 0.3
    assert all(r <= 1e-10 for r in rep.measurements["residual"])


def test_neumann_harmonic_study():
    rep = convergence_study("neumann_harmonic", levels=3, base_n=4)
    assert rep.all_passed
    assert abs(rep.fitted["rate"] - 2.0) <= 0.3
    assert all(abs(d) <= 1e-12 for d in rep.measurements["defect"])


def test_plap_affine_study():
    rep = convergence_study("plap_affine", levels=3, base_n=4, p=4.0)
    assert rep.all_passed
    assert rep.fitted["rate"] == "exact"
    assert rep.fitted["max_error"] <= 1e-6


def test_ibp_smooth_study_rate_is_exactly_linear():
    rep = convergence_study("ibp_smooth", levels=3, base_n=4)
    assert rep.all_passed
    # the residual is exactly h/3 on these meshes, so the fit is exact
    assert rep.fitted["rate"] == pytest.approx(1.0, abs=1e-9)
