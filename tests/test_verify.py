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
    poincare_constant_2,
    refine,
    report_csv,
    report_summary,
)
from singfem import laplace, verify
from singfem.geometry import path_lengths
from singfem.fem import mass_matrix, stiffness_matrix


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


def test_report_writers_round_trip_and_rerun_bit_identical():
    rep = Report(
        experiment="demo",
        params={"p": 3.0, "schedule": (1, 2)},
        levels=[0, 1],
        measurements={"h": [0.5, 0.25], "error": [1.0 / 3.0, 0.1 + 0.2]},
        fitted={"rate": 1.7369655941662063},
        passed={"ok": True},
        tolerances={"rate": "~2"},
    )
    text = report_csv(rep, "cafe")
    assert report_csv(rep, "cafe") == text
    lines = text.splitlines()
    assert lines[0] == "# config_hash=cafe"
    assert lines[1] == "level,h,error"
    # repr cells reparse to the exact stored doubles
    assert float(lines[2].split(",")[2]) == 1.0 / 3.0
    assert float(lines[3].split(",")[2]) == 0.1 + 0.2

    payload = json.loads(json.dumps(report_summary(rep, "cafe"), sort_keys=True))
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


@pytest.mark.parametrize("mode", ["wirtinger"])
def test_poincare_constant_matches_a_sparse_eigen_solve(mode, monkeypatch):
    mesh = build_unit_square(4)
    for _ in range(3):
        mesh = refine(mesh)
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)  # MG-PCG, not the band
    builds = _count_solvers(monkeypatch)
    iterations = []
    cg = laplace.conjugate_gradient

    def counted(*args, **kwargs):
        x, its = cg(*args, **kwargs)
        iterations.append(its)
        return x, its

    monkeypatch.setattr(laplace, "conjugate_gradient", counted)
    c = poincare_constant_2(mesh)

    K = stiffness_matrix(mesh).tocsc()
    M = mass_matrix(mesh).tocsc()
    # the pencil is singular (constants); shift-invert about -1
    lam = np.sort(eigsh(K, k=2, M=M, sigma=-1.0, return_eigenvectors=False))[1]
    assert c == pytest.approx(1.0 / math.sqrt(lam), rel=1e-6)
    assert iterations and max(iterations) <= 25
    assert len(builds) == 1  # one solver serves every inverse-iteration step


def _count_solvers(monkeypatch):
    builds, init = [], laplace._FreeBlockSolver.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    monkeypatch.setattr(laplace._FreeBlockSolver, "__init__", counted)
    return builds


@pytest.mark.parametrize("run", [
    lambda mesh: poincare_constant_2(mesh),
], ids=["constant_2"])
def test_poincare_routines_build_one_solver(run, monkeypatch):
    builds = _count_solvers(monkeypatch)
    assert run(refine(build_unit_square(4))) > 0.0
    assert len(builds) == 1


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


def _pairs_by_stable_sort(mesh, values, n_pairs, seed):
    """Reference sampler: verify._holder_sample_pairs as it was with each
    source row sorted stably, so that a tie run starts at its lowest id."""
    rng = np.random.default_rng(seed)
    nv = mesh.num_vertices
    anchors = sorted({int(np.argmin(values)), int(np.argmax(values))})
    n_anchor = max(1, n_pairs // 8)
    n_random = max(0, n_pairs - n_anchor * len(anchors))
    per_source, rest = max(8, math.isqrt(n_random)), n_random
    counts = [n_anchor] * len(anchors)
    while rest > 0:
        counts.append(min(per_source, rest))
        rest -= counts[-1]
    budget = anchors + rng.integers(0, nv, size=len(counts) - len(anchors)).tolist()
    sources = np.unique(budget)
    dist_all = path_lengths(mesh, sources)
    half_window = 0.5 * math.log10(2.0)
    pair_i, pair_j, pair_d = [], [], []
    for s, count in zip(budget, counts):
        row = dist_all[np.searchsorted(sources, s)]
        ids = np.nonzero(row > 0.0)[0]
        positive = row[ids]
        hi = math.log10(float(positive.max()))
        lo = min(math.log10(3.0 * float(positive.min())) + half_window, hi - 0.1)
        logd = np.log10(positive)
        order = np.argsort(logd, kind="stable")
        ids, logd = ids[order], logd[order]
        t = rng.uniform(lo, hi, size=count)
        left = np.searchsorted(logd, t - half_window, side="left")
        width = np.searchsorted(logd, t + half_window, side="right") - left
        k = rng.integers(0, np.maximum(width, 1))
        below = np.maximum(left - 1, 0)
        above = np.minimum(left, len(logd) - 1)
        nearest = np.where(t - logd[below] <= logd[above] - t, below, above)
        j = ids[np.searchsorted(logd, logd[nearest], side="left")]
        for q in np.nonzero(width)[0]:
            j[q] = np.partition(ids[left[q]:left[q] + width[q]], k[q])[k[q]]
        pair_i.append(np.full(count, s, dtype=np.int64))
        pair_j.append(j)
        pair_d.append(row[j])
    return np.concatenate(pair_i), np.concatenate(pair_j), np.concatenate(pair_d)


@pytest.mark.parametrize("build", [
    lambda: build_cusp(3.0, 6),
    lambda: refine(build_cusp(3.0, 6)),
    lambda: refine(refine(build_cusp(3.0, 6))),
    lambda: build_unit_square(16),
    lambda: build_annulus(0.3, 1.0, 4, 16),
], ids=["cusp-L0", "cusp-L1", "cusp-L2", "square", "annulus"])
def test_holder_pairs_do_not_depend_on_the_order_of_tied_distances(build):
    # The square's lattice ties many path distances; the pairs must be the
    # stable sort's, whatever order the default sort leaves the ties in.
    mesh = build()
    values = np.sin(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 1]
    for seed in range(20):
        got = verify._holder_sample_pairs(mesh, values, 1200, seed)
        for a, b in zip(got, _pairs_by_stable_sort(mesh, values, 1200, seed)):
            assert a.tobytes() == b.tobytes()


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
