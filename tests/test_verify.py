import json
import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from singfem import (
    Report,
    ScalarField,
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
from singfem import laplace
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
