"""Numerical certificates: the L^2 Poincare-Wirtinger constant, the
punctured-domain counterexample, Holder-exponent estimation in the inner
metric, and convergence studies for the solvers and the discrete calculus.
EXPERIMENTS maps each `singfem verify` experiment name to its function.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry
from .geometry import build_annulus, build_unit_square, partition_by_tags, path_lengths
from .laplace import (
    MixedProblem,
    NeumannProblem,
    SolverError,
    _FreeBlockSolver,
    solve_mixed,
    solve_neumann,
)
# Not called here: every solve goes through _FreeBlockSolver.  The name
# stays bound because perfbench/tracer.py patches it in this module.
from .laplace import conjugate_gradient  # noqa: F401
from .plaplace import PlapProblem, solve_p_laplace


class ParameterError(ValueError):
    """An experiment parameter out of range; the message starts with its name."""


def substream_seed(seed, label):
    """Derived 64-bit seed for a named random substream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(eq=False)
class Report:
    """Tabular outcome of one verification experiment.

    levels is the per-row level schedule; every measurement column has
    one entry per row.  fitted holds derived quantities (rates,
    constants), passed maps named checks to booleans, tolerances
    records the thresholds the checks used.
    """

    experiment: str
    params: dict
    levels: list
    measurements: dict
    fitted: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, col in self.measurements.items():
            if len(col) != len(self.levels):
                raise ValueError(
                    f"measurement {key!r} has {len(col)} entries for "
                    f"{len(self.levels)} levels"
                )

    @property
    def all_passed(self):
        return all(self.passed.values())


def _csv_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_text(config_hash, header, rows):
    """CSV text: a "# config_hash=" line, the header, then one line per row.

    Floats are written through repr, which round-trips 64-bit values
    exactly; a rerun with identical inputs is bit-identical.
    """
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    lines += [",".join(_csv_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_csv(report, config_hash):
    """report.csv's text: one row per level, with level, h, then the
    measurement columns."""
    cols = [k for k in report.measurements if k != "h"]
    h = report.measurements.get("h", [float("nan")] * len(report.levels))
    rows = [[int(level), h[row]] + [report.measurements[c][row] for c in cols]
            for row, level in enumerate(report.levels)]
    return csv_text(config_hash, ["level", "h"] + cols, rows)


def report_summary(report, config_hash):
    """summary.json's fields."""
    return {
        "experiment": report.experiment,
        "fitted_value": report.fitted,
        "tolerance": report.tolerances,
        "pass": report.all_passed,
        "passed": report.passed,
        "params": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in report.params.items()},
        "config_hash": config_hash,
    }


def fit_rate(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("rate fit requires positive mesh sizes and errors")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# -- Poincare constants ----------------------------------------------------


_POINCARE_RTOL = 1e-8  # relative eigenvalue change that ends the iteration
_POINCARE_MAXITER = 400


def poincare_constant_2(mesh):
    """Best constant in the Wirtinger inequality ||u - a||_{L^2} <=
    C ||grad u||_{L^2}, a the mean of u.

    Computed as 1/sqrt(lambda_1) by inverse power iteration on the
    stiffness/mass pencil with constants deflated.  The conforming
    discrete eigenvalue approximates from above, so the estimate is a
    lower bound of the true constant and nondecreasing under nested
    refinement.
    """
    nv = mesh.num_vertices
    # Pinning vertex 0 makes the free block definite; a zero-sum rhs
    # keeps the pinned solution a solution of K y = b, up to the
    # constant that deflate removes.
    free = np.arange(1, nv)
    solver = _FreeBlockSolver(mesh, free, 1e-10)
    K, M = solver.K, fem.mass_matrix(mesh)
    ones = np.ones(nv)
    M1 = M @ ones
    total = float(ones @ M1)

    def deflate(v):
        return v - (float(v @ M1) / total) * ones

    solve = solver.system()  # built once, for every step
    x = deflate(mesh.vertices[:, 0].copy())
    lam_old = math.inf
    for _ in range(_POINCARE_MAXITER):
        b = M @ x
        y = np.zeros(nv)
        y[free], _ = solve(b[free] - b.mean())
        y = deflate(y)
        num = float(y @ (K @ y))
        den = float(y @ (M @ y))
        lam = num / den
        x = y / math.sqrt(den)
        if abs(lam - lam_old) <= _POINCARE_RTOL * abs(lam):
            return 1.0 / math.sqrt(lam)
        lam_old = lam
    raise SolverError(
        f"inverse iteration did not settle within {_POINCARE_MAXITER} steps "
        f"(last eigenvalue {lam!r})"
    )


def poincare_2(levels=3):
    """Wirtinger constants of the unit square and the 2 x 1 rectangle on
    `levels` nested meshes, checked against 1/pi and 2/pi and for
    monotone growth under refinement."""
    if levels < 2:
        raise ParameterError(f"levels: must be >= 2, got {levels}")
    sq = build_unit_square(8)
    rc = geometry.build_rectangle(2.0, 1.0, 16, 8)
    meas = {"h": [], "c_square": [], "c_rect": []}
    rows = list(range(levels))
    for lev in rows:
        if lev > 0:
            sq, rc = geometry.refine(sq), geometry.refine(rc)
        meas["h"].append(geometry.mesh_size(sq))
        meas["c_square"].append(poincare_constant_2(sq))
        meas["c_rect"].append(poincare_constant_2(rc))
    c_sq, c_rc = meas["c_square"], meas["c_rect"]
    fitted = {"c_square": c_sq[-1], "c_rect": c_rc[-1],
              "target_square": 1.0 / math.pi, "target_rect": 2.0 / math.pi}
    passed = {
        "square_within_5pct": abs(c_sq[-1] - 1.0 / math.pi) <= 0.05 / math.pi,
        "rect_within_5pct": abs(c_rc[-1] - 2.0 / math.pi) <= 0.1 / math.pi,
        "square_monotone_nondecreasing": all(
            b >= a for a, b in zip(c_sq, c_sq[1:])
        ),
        "rect_monotone_nondecreasing": all(b >= a for a, b in zip(c_rc, c_rc[1:])),
    }
    return Report(
        experiment="poincare_2",
        params={"levels": levels},
        levels=rows,
        measurements=meas,
        fitted=fitted,
        passed=passed,
        tolerances={"constant": 0.05},
    )


# -- punctured-domain counterexample ---------------------------------------


# The counterexample's annuli: outer radius and the coarsest level's cells.
_ANNULUS_R_OUT = 1.0
_ANNULUS_BASE_RADIAL = 16
_ANNULUS_BASE_ANGULAR = 24


def counterexample_punctured(p=3.0, r_in_schedule=(1e-2, 1e-3), levels=3):
    """Vanishing-pairing failure across a shrinking puncture.

    On annuli with inner radius from the schedule, pair the pole field
    beta = (x, y)/r^2 (sampled at centroids; its divergence vanishes
    identically) against a radial plateau u that is 1 inside r_1 =
    2 * min(schedule) and 0 outside r_2 = 0.8 * r_out (r_out = 1).  The
    residual of the vanishing identity, accounted over the outer boundary
    only, converges to 2*pi instead of 0: the point constraint at the
    puncture is invisible to exponents p (> 2 required, since the
    threshold exponent of a point in the plane is exactly 2).  Also
    reports ||beta||^{p'}_{L^{p'}} (bounded) and ||beta||^2_{L^2}
    (growing like 2*pi*log(r_out/r_in)).
    """
    if p <= 2.0:
        raise ParameterError(
            f"p: the puncture is invisible only above the threshold exponent 2 "
            f"of a point in the plane; got p = {p}"
        )
    if levels < 1:
        raise ParameterError(f"levels: must be >= 1, got {levels}")
    schedule = tuple(float(r) for r in r_in_schedule)
    if not schedule or min(schedule) <= 0.0:
        raise ParameterError("r_in_schedule: must be a non-empty list of positive radii")
    r_out = _ANNULUS_R_OUT
    r1 = 2.0 * min(schedule)
    r2 = 0.8 * r_out
    if r1 >= r2:
        raise ParameterError("r_in_schedule: plateau radii collapsed; shrink the radii")
    p_conj = p / (p - 1.0)

    rows_level, meas = [], {
        "h": [], "r_in": [], "n_radial": [], "n_angular": [],
        "residual": [], "abs_residual": [],
        "beta_pprime_pow": [], "beta_l2_sq": [],
    }
    finest_abs = {}
    finest_l2 = {}
    for r_in in schedule:
        for lev in range(levels):
            nr = _ANNULUS_BASE_RADIAL * (2**lev)
            na = _ANNULUS_BASE_ANGULAR * (2**lev)
            mesh = build_annulus(r_in, r_out, nr, na)
            partition = partition_by_tags(mesh, neumann=("inner", "outer"))
            r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
            u = fem.ScalarField(mesh, np.clip((r2 - r) / (r2 - r1), 0.0, 1.0))
            beta = fem.VectorField.from_function(
                mesh, lambda x, y: (x / (x**2 + y**2), y / (x**2 + y**2))
            )
            zero = fem.ScalarField.constant(mesh, 0.0)
            resid = fem.ibp_residual(partition, u, beta, zero, region="outer")
            bpp = fem.lp_norm(beta, p_conj) ** p_conj
            bl2 = fem.lp_norm(beta, 2) ** 2

            rows_level.append(lev)
            meas["h"].append(2.0 * math.pi * r_out / na)
            meas["r_in"].append(r_in)
            meas["n_radial"].append(nr)
            meas["n_angular"].append(na)
            meas["residual"].append(resid)
            meas["abs_residual"].append(abs(resid))
            meas["beta_pprime_pow"].append(bpp)
            meas["beta_l2_sq"].append(bl2)
            if lev == levels - 1:
                finest_abs[r_in] = abs(resid)
                finest_l2[r_in] = bl2

    two_pi = 2.0 * math.pi
    fitted = {}
    passed = {}
    for r_in in schedule:
        fitted[f"abs_residual[r_in={r_in!r}]"] = finest_abs[r_in]
        fitted[f"beta_l2_sq[r_in={r_in!r}]"] = finest_l2[r_in]
    flux_ok = all(abs(v - two_pi) <= 0.05 * two_pi for v in finest_abs.values())
    vals = list(finest_abs.values())
    gap = max(vals) - min(vals)
    gap_rel = gap / max(vals)
    l2_ok = all(
        abs(finest_l2[r] - two_pi * math.log(r_out / r)) <= 0.03 * two_pi * math.log(r_out / r)
        for r in schedule
    )
    pprime_sup = two_pi * math.sqrt(r_out) / 0.5  # analytic r_in -> 0 limit
    bounded_ok = all(v <= 1.1 * pprime_sup for v in meas["beta_pprime_pow"])

    fitted["r_in_gap_rel"] = gap_rel
    fitted["pprime_sup_analytic"] = pprime_sup
    passed["flux_within_5pct_of_2pi"] = flux_ok
    passed["r_in_gap_within_2pct"] = gap_rel <= 0.02
    passed["l2_square_within_3pct"] = l2_ok
    passed["pprime_bounded"] = bounded_ok

    return Report(
        experiment="counterexample_punctured",
        params={"p": p, "r_in_schedule": schedule, "levels": levels,
                "r_out": r_out, "r1": r1, "r2": r2},
        levels=rows_level,
        measurements=meas,
        fitted=fitted,
        passed=passed,
        tolerances={"flux": 0.05, "r_in_gap": 0.02, "l2_square": 0.03,
                    "pprime_bound_factor": 1.1},
    )


# -- Holder exponent in the inner metric -----------------------------------


def _holder_sample_pairs(mesh, values, n_pairs, seed):
    """Scale-stratified random vertex pairs for the envelope fit.

    Target distances are drawn log-uniformly over each source's
    distance range so every dyadic scale is populated (uniformly random
    pairs concentrate near the diameter and starve the short bins).  A
    quarter of the budget is anchored at the two vertices extremizing
    u, where the Holder envelope is attained; the anchor set, and hence
    the sampled pairs, are invariant under affine maps of u.

    The other n_random pairs come from random sources with
    max(8, isqrt(n_random)) pairs each, so the Dijkstra rows grow like
    sqrt(n_pairs), not like n_pairs.  Each source's positive distances
    are sorted once by log distance.  Each target t finds its window
    |log10 d - t| <= log10(2)/2 there by binary search and takes the
    window's k-th vertex in id order, k uniform; an empty window takes
    the nearest log distance, lowest vertex id first.  Either pick
    depends only on a set of tied or windowed vertices, not on the
    order the sort leaves ties in, so the pairs are the same on every
    CPU.
    """
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
    if not np.all(np.isfinite(dist_all)):
        raise geometry.MeshError("mesh is not edge-connected")

    # Scales below ~3 nearest-neighbor spacings are dominated by the
    # lattice quantization of the path metric; start above them, and pad
    # by the window half-width so the draw window cannot spill below the
    # floor either.
    half_window = 0.5 * math.log10(2.0)
    pair_i, pair_j, pair_d = [], [], []
    for s, count in zip(budget, counts):
        row = dist_all[np.searchsorted(sources, s)]
        ids = np.nonzero(row > 0.0)[0]
        positive = row[ids]
        hi = math.log10(float(positive.max()))
        lo = min(math.log10(3.0 * float(positive.min())) + half_window, hi - 0.1)
        logd = np.log10(positive)
        order = np.argsort(logd)
        ids, logd = ids[order], logd[order]
        t = rng.uniform(lo, hi, size=count)
        left = np.searchsorted(logd, t - half_window, side="left")
        width = np.searchsorted(logd, t + half_window, side="right") - left
        k = rng.integers(0, np.maximum(width, 1))
        # An empty window becomes the run of positions tied at the nearest
        # log distance, and takes the run's lowest vertex id (k = 0).
        below = np.maximum(left - 1, 0)
        above = np.minimum(left, len(logd) - 1)
        nearest = np.where(t - logd[below] <= logd[above] - t, logd[below], logd[above])
        empty = width == 0
        left[empty] = np.searchsorted(logd, nearest[empty], side="left")
        width[empty] = np.searchsorted(logd, nearest[empty], side="right") - left[empty]
        # Each window takes its k-th vertex in id order.
        j = ids[left]
        for q in np.nonzero(width > 1)[0]:
            j[q] = np.partition(ids[left[q]:left[q] + width[q]], k[q])[k[q]]
        pair_i.append(np.full(count, s, dtype=np.int64))
        pair_j.append(j)
        pair_d.append(row[j])
    return np.concatenate(pair_i), np.concatenate(pair_j), np.concatenate(pair_d)


# Log-distance bins of the Holder envelope fit.
_HOLDER_BINS = 12


def holder_regression(mesh, u, n_pairs=2000, seed=0):
    """Envelope table for the Holder fit.

    Samples random vertex pairs, computes their inner-metric distances,
    bins |u_i - u_j| by log distance (_HOLDER_BINS bins) and keeps the
    per-bin maximum.
    Returns a dict with the kept bin log-centers and log-maxima, the
    lower-half selection mask, and the raw pair/bin assignment (so
    affine-invariance of the regression inputs is checkable bit-level).
    """
    i, j, dist = _holder_sample_pairs(mesh, u.values, n_pairs, seed)
    du = np.abs(u.values[i] - u.values[j])

    ld = np.log10(dist)
    lo, hi = float(ld.min()), float(ld.max())
    n_bins = _HOLDER_BINS
    if hi - lo < 1e-12:
        edges = np.asarray([lo - 0.5, hi + 0.5])
        n_bins = 1
    else:
        edges = np.linspace(lo, hi, n_bins + 1)
    bin_of_pair = np.clip(np.digitize(ld, edges) - 1, 0, n_bins - 1)
    bin_max = np.full(n_bins, -np.inf)
    np.maximum.at(bin_max, bin_of_pair, du)
    counts = np.bincount(bin_of_pair, minlength=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])

    # Regress against the achieving pair's own distance: the bin center
    # is biased toward its upper edge where the max tends to live.  Ties
    # go to the closest attaining pair, which is the envelope point.
    logd_at_max = np.full(n_bins, np.nan)
    for b in range(n_bins):
        mask = bin_of_pair == b
        if mask.any():
            sub = np.nonzero(mask)[0]
            mx = float(du[sub].max())
            attain = sub[du[sub] >= mx - 1e-12 * (1.0 + abs(mx))]
            logd_at_max[b] = float(ld[attain].min())

    keep_bin = (counts > 0) & (bin_max > 0.0)
    lower_half = centers <= 0.5 * (lo + hi)
    return {
        "bin_centers_log10": centers,
        "bin_logd_at_max": logd_at_max,
        "bin_max": bin_max,
        "bin_counts": counts,
        "keep_bin": keep_bin,
        "lower_half": lower_half,
        "bin_of_pair": bin_of_pair,
        "pair_i": i,
        "pair_j": j,
        "pair_dist": dist,
    }


def holder_exponent(mesh, u, n_pairs=2000, seed=0):
    """Estimated Holder exponent (slope) and regression R^2.

    Regresses the log envelope of |u_i - u_j| against log inner-metric
    distance over the lower half of the sampled distance range.  A
    constant field has no finite exponent claim: returns (nan, 0.0).
    """
    span = float(u.values.max() - u.values.min())
    if span == 0.0:
        return (float("nan"), 0.0)
    table = holder_regression(mesh, u, n_pairs=n_pairs, seed=seed)
    sel = table["keep_bin"] & table["lower_half"]
    if int(sel.sum()) < 2:
        sel = table["keep_bin"]
    if int(sel.sum()) < 2:
        return (float("nan"), 0.0)
    x = table["bin_logd_at_max"][sel]
    y = np.log10(table["bin_max"][sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return (float(slope), 0.0)
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return (float(slope), r2)


def holder_cusp(k=3.0, n=6, n_pairs=4000, seed=0, p_values=(2.0, 8.0)):
    """Holder exponent fits (n_pairs sampled vertex pairs) of the
    p-minimizers with source y and u = 0 on the right side of the cusp
    of order k, one per exponent of p_values."""
    if k < 1.0:
        raise ParameterError(f"k: must be >= 1.0, got {k}")
    if n < 2:
        raise ParameterError(f"n: must be >= 2, got {n}")
    if n_pairs < 10:
        raise ParameterError(f"n_pairs: must be >= 10, got {n_pairs}")
    for p in p_values:
        if not p > 1.0:
            raise ParameterError(f"p_values: must be > 1.0, got {p}")

    mesh = geometry.build_cusp(k, n)
    partition = partition_by_tags(mesh, dirichlet=("right",),
                                  neumann=("lower", "upper"))
    constraint = frozenset(int(v) for v in partition.region_vertices("dirichlet"))
    f = fem.ScalarField.from_function(mesh, lambda x, y: y)

    meas = {"h": [], "p": [], "alpha": [], "fit_quality": []}
    for p in p_values:
        u, _ = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p, tol=1e-8))
        alpha, r2 = holder_exponent(
            mesh, u, n_pairs=n_pairs, seed=substream_seed(seed, "holder:pairs")
        )
        meas["h"].append(geometry.mesh_size(mesh))
        meas["p"].append(p)
        meas["alpha"].append(alpha)
        meas["fit_quality"].append(r2)
    passed = {
        "alpha_positive": all(a > 0.0 for a in meas["alpha"]),
        "fit_quality_at_least_0.8": all(q >= 0.8 for q in meas["fit_quality"]),
    }
    return Report(
        experiment="holder_cusp",
        params={"k": k, "n": n, "p_values": p_values,
                "n_pairs": n_pairs, "seed": seed},
        levels=list(range(len(p_values))),
        measurements=meas,
        fitted={"alpha_min": min(meas["alpha"]),
                "fit_quality_min": min(meas["fit_quality"])},
        passed=passed,
        tolerances={"alpha": "> 0", "fit_quality": ">= 0.8"},
    )


# -- convergence studies -----------------------------------------------------


_STUDIES = ("manufactured_dirichlet", "neumann_harmonic", "plap_affine", "ibp_smooth")


def convergence_study(problem_id, levels=4, base_n=8, p=4.0):
    """Rate study for a named problem family over nested mesh levels.

    manufactured_dirichlet : full-Dirichlet sine product, L^2 rate ~ 2
    neumann_harmonic : pure-Neumann harmonic polynomial, L^2 rate ~ 2
    plap_affine : affine data reproduced exactly by the p-solve
    ibp_smooth : analytic-divergence residual decaying at rate >= 1
    """
    if problem_id not in _STUDIES:
        raise ValueError(f"unknown study {problem_id!r}; choose from {_STUDIES}")
    if levels < 3:
        raise ParameterError(f"levels: a rate needs at least 3 levels, got {levels}")
    if base_n < 2:
        raise ParameterError(f"base_n: must be >= 2, got {base_n}")
    if not p > 1.0:
        raise ParameterError(f"p: must be > 1.0, got {p}")

    rows = list(range(levels))
    meas = {"h": [], "error": []}
    fitted, passed, tolerances = {}, {}, {}

    if problem_id == "manufactured_dirichlet":
        meas["residual"] = []
        for lev in rows:
            n = base_n * (2**lev)
            mesh = build_unit_square(n)
            part = partition_by_tags(mesh, dirichlet=("left", "right", "bottom", "top"))
            exact = fem.ScalarField.from_function(
                mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
            )
            g = fem.ScalarField(mesh, -2.0 * np.pi**2 * exact.values)
            u, info = solve_mixed(MixedProblem(part, g, exact))
            meas["h"].append(math.sqrt(2.0) / n)
            meas["error"].append(fem.lp_norm(u - exact, 2))
            meas["residual"].append(info["residual"])
        rate = fit_rate(meas["h"], meas["error"])
        fitted["rate"] = rate
        tolerances["rate"] = "2.0 +- 0.3"
        passed["rate_near_2"] = abs(rate - 2.0) <= 0.3
        passed["residuals_below_1e-10"] = all(r <= 1e-10 for r in meas["residual"])

    elif problem_id == "neumann_harmonic":
        meas["defect"] = []
        for lev in rows:
            n = base_n * (2**lev)
            mesh = build_unit_square(n)
            part = partition_by_tags(
                mesh, neumann=("left", "right", "bottom", "top")
            )
            # The harmonic quadratic is reproduced exactly on this
            # structured mesh; the cubic leaves an O(h^2) error to fit.
            w = fem.ScalarField.from_function(mesh, lambda x, y: x**3 - 3.0 * x * y**2)
            theta = fem.flux_trace_from_function(
                part,
                "boundary",
                lambda x, y, nx, ny: (3.0 * x**2 - 3.0 * y**2) * nx - 6.0 * x * y * ny,
            )
            g = fem.ScalarField.constant(mesh, 0.0)
            u, info = solve_neumann(NeumannProblem(part, g, theta))
            ones = fem.ScalarField.constant(mesh, 1.0)
            mean_w = fem.scalar_inner(w, ones) / fem.scalar_inner(ones, ones)
            centered = fem.ScalarField(mesh, w.values - mean_w)
            meas["h"].append(math.sqrt(2.0) / n)
            meas["error"].append(fem.lp_norm(u - centered, 2))
            meas["defect"].append(info["defect"])
        rate = fit_rate(meas["h"], meas["error"])
        fitted["rate"] = rate
        tolerances["rate"] = "2.0 +- 0.3"
        passed["rate_near_2"] = abs(rate - 2.0) <= 0.3

    elif problem_id == "plap_affine":
        for lev in rows:
            n = max(2, base_n // 2) * (2**lev)
            mesh = build_unit_square(n)
            part = partition_by_tags(mesh, dirichlet=("left", "right"),
                                     neumann=("bottom", "top"))
            f = fem.ScalarField.from_function(mesh, lambda x, y: x)
            constraint = frozenset(int(v) for v in part.region_vertices("dirichlet"))
            u, _ = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p))
            meas["h"].append(math.sqrt(2.0) / n)
            meas["error"].append(float(np.max(np.abs(u.values - f.values))))
        fitted["rate"] = "exact"
        fitted["max_error"] = max(meas["error"])
        tolerances["max_error"] = 1e-6
        passed["exact_to_1e-6"] = all(e <= 1e-6 for e in meas["error"])

    elif problem_id == "ibp_smooth":
        for lev in rows:
            n = base_n * (2**lev)
            mesh = build_unit_square(n)
            part = partition_by_tags(mesh, neumann=("left", "right", "bottom", "top"))
            u = fem.ScalarField.from_function(mesh, lambda x, y: x)
            beta = fem.VectorField.from_function(mesh, lambda x, y: (x, 0.0 * y))
            div = fem.ScalarField.constant(mesh, 1.0)
            resid = fem.ibp_residual(part, u, beta, div, region="boundary")
            meas["h"].append(math.sqrt(2.0) / n)
            meas["error"].append(abs(resid))
        rate = fit_rate(meas["h"], meas["error"])
        fitted["rate"] = rate
        tolerances["rate"] = ">= 1.0"
        passed["rate_at_least_1"] = rate >= 0.99

    return Report(
        experiment=f"convergence:{problem_id}",
        params={"levels": levels, "base_n": base_n, "p": p},
        levels=rows,
        measurements=meas,
        fitted=fitted,
        passed=passed,
        tolerances=tolerances,
    )


# Every `verify` experiment by name.  Each function's keyword parameters
# and their defaults are the experiment's config keys and defaults.
EXPERIMENTS = {
    **{name: functools.partial(convergence_study, name) for name in _STUDIES},
    "counterexample_punctured": counterexample_punctured,
    "poincare_2": poincare_2,
    "holder_cusp": holder_cusp,
}
