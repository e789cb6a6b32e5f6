"""The benchmark's workloads: seeded CLI inputs and their correctness checks.

Each workload is one `singfem` subcommand on one generated config file.
The seed fixes the data coefficients written into the config and the
CLI's --seed; the CLI receives nothing else.  The coefficient ranges are
narrow so that every seed asks for about the same work: the IRLS ladder's
factorization count moves with the data in steps of one.  Checks read only the
artifact the command wrote and recompute their verdict independently of
the code path that produced it.
"""

from __future__ import annotations

import csv
import json
import random

import numpy as np
from scipy.sparse.linalg import splu

from singfem import fem
from singfem.cli import compile_expression
from singfem.geometry import Mesh, partition_by_tags
from singfem.plaplace import p_stationarity

SQUARE_SIDES = {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}
CUSP_SIDES = {"dirichlet": ["right"], "neumann": ["lower", "upper"]}


class Workload:
    """A subcommand, its config generator, its artifact and its checks.

    units names what `attempted` counts: whole commands, or the sweep's
    cells (units_per_command of them per command).
    """

    def __init__(self, name, argv, artifact, make_config, check,
                 units="commands", units_per_command=1):
        self.name = name
        self.argv = argv
        self.artifact = artifact
        self.make_config = make_config
        self.check = check
        self.units = units
        self.units_per_command = units_per_command

    def inputs(self, seed):
        """(config dict, CLI seed) derived from the workload seed alone."""
        rng = random.Random(f"{self.name}:{seed}")
        return self.make_config(rng), rng.randrange(2**32)


def _coef(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _load_solution(path):
    with open(path) as fh:
        payload = json.load(fh)
    mesh = Mesh.from_json_dict(payload["mesh"])
    values = np.asarray(payload["solution"]["values"], dtype=np.float64)
    return payload, mesh, values


def _nodal(mesh, text, field):
    fn = compile_expression(text, field)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return np.asarray(fn(x=x, y=y), dtype=np.float64) * np.ones(mesh.num_vertices)


# -- laplace_refined -----------------------------------------------------------


def _laplace_config(rng):
    return {
        "domain": {"kind": "unit_square", "n": 64},
        "refine": 2,
        "partition": SQUARE_SIDES,
        "data": {
            "f": f"sin({_coef(rng, 2.9, 3.1)} * x * y)",
            "g": f"{_coef(rng, 0.9, 1.1)} * x - y",
            "theta": f"{_coef(rng, 0.9, 1.1)} * (nx * x + ny * y)",
        },
        "rtol": 1e-12,
    }


def _check_laplace(path, cfg):
    """Compare with a direct SuperLU solve of the same free-vertex system.

    CG promises a true residual ||rhs - K_ff u|| <= rtol ||rhs||, so its
    error is at most rtol ||rhs|| / lambda_min(K_ff); lambda_min is
    estimated by inverse iteration on the same factorization.  The
    factor 10 on both admits the drift between CG's recursive and true
    residual.  The Dirichlet values must be copied exactly.
    """
    payload, mesh, u = _load_solution(path)
    data, rtol = cfg["data"], cfg["rtol"]
    part = partition_by_tags(mesh, **cfg["partition"])
    g = _nodal(mesh, data["g"], "data.g")
    flux = compile_expression(data["theta"], "data.theta",
                              variables=("x", "y", "r", "nx", "ny"))
    theta = fem.flux_trace_from_function(
        part, "neumann",
        lambda x, y, nx, ny: np.asarray(flux(x=x, y=y, nx=nx, ny=ny), dtype=np.float64))
    b = fem.boundary_functional(part, theta) - fem.mass_matrix(mesh) @ g
    K = fem.stiffness_matrix(mesh).tocsc()
    fixed = part.region_vertices("dirichlet")
    free = np.setdiff1d(np.arange(mesh.num_vertices), fixed)
    rhs = b[free] - K[free][:, fixed] @ u[fixed]
    K_ff = K[free][:, free].tocsc()
    lu = splu(K_ff)
    u_ref = lu.solve(rhs)
    v = np.ones(len(free))
    for _ in range(30):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
    lam_min = float(v @ (K_ff @ v))
    tol = 10.0 * rtol * float(np.linalg.norm(rhs)) / lam_min
    err = float(np.linalg.norm(u[free] - u_ref))
    residual = float(np.linalg.norm(rhs - K_ff @ u[free])) / float(np.linalg.norm(rhs))
    f_ok = bool(np.array_equal(u[fixed], _nodal(mesh, data["f"], "data.f")[fixed]))
    detail = {"error_l2": err, "tolerance": tol, "lambda_min": lam_min,
              "relative_residual": residual, "rtol": rtol, "dirichlet_exact": f_ok,
              "cg_iterations": payload["info"]["iterations"]}
    ok = err <= tol and residual <= 10.0 * rtol and f_ok
    return (0 if ok else 1), detail


# -- plap_p4 ---------------------------------------------------------------------


def _plap_config(rng):
    return {
        "domain": {"kind": "unit_square", "n": 128},
        "partition": SQUARE_SIDES,
        "data": {"f": f"sin({_coef(rng, 2.95, 3.05)} * x * y) + x"},
        "tol": 1e-8,
    }


def _check_plap(path, cfg):
    """Recompute the exact stationarity; the certificate must have passed."""
    payload, mesh, u = _load_solution(path)
    part = partition_by_tags(mesh, **cfg["partition"])
    constraint = frozenset(int(v) for v in part.region_vertices("dirichlet"))
    stat = p_stationarity(fem.ScalarField(mesh, u), 4.0, constraint)
    passed = bool(payload["info"]["certificate"]["passed"])
    detail = {"stationarity": stat, "tol": cfg["tol"], "certificate_passed": passed}
    return (0 if stat <= cfg["tol"] and passed else 1), detail


# -- sweep_cusp ----------------------------------------------------------------


SWEEP_LEVELS = [0, 1, 2, 3]


def _sweep_config(rng):
    return {
        "domain": {"kind": "cusp", "k": 3, "n": 6},
        "partition": CUSP_SIDES,
        "data": {"f": f"y + {_coef(rng, 0.38, 0.42)} * y * y"},
        "p_values": [4.0],
        "levels": SWEEP_LEVELS,
        "tol": 1e-8,
    }


def _check_sweep(path, cfg):
    """Every cell must be ok with stationarity within tol."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    bad = [r for r in rows
           if r["status"] != "ok" or not float(r["stationarity"]) <= cfg["tol"]]
    expected = len(cfg["p_values"]) * len(cfg["levels"])
    failed = len(bad) + max(0, expected - len(rows))
    detail = {"cells": len(rows), "bad_cells": len(bad), "tol": cfg["tol"],
              "vertices": [int(r["n_vertices"]) for r in rows]}
    return failed, detail


WORKLOADS = {
    w.name: w
    for w in (
        Workload("laplace_refined", ["solve-laplace"], "solution.json",
                 _laplace_config, _check_laplace),
        Workload("plap_p4", ["solve-plap", "--p", "4", "--certificate"],
                 "solution.json", _plap_config, _check_plap),
        Workload("sweep_cusp", ["sweep"], "sweep.csv", _sweep_config, _check_sweep,
                 units="cells", units_per_command=len(SWEEP_LEVELS)),
    )
}
