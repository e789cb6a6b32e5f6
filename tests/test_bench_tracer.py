"""The benchmark's tracer (perfbench/tracer.py) patches names inside the
package; this fails as soon as one of those names stops existing."""

import importlib
import json
import pathlib

from singfem import laplace
from singfem.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_counts_a_refined_laplace_solve(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "unit_square", "n": 4},
        "refine": 1,
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x", "g": "1"},
    }))
    cg = laplace.conjugate_gradient
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        rc = tracer.command(main, ["solve-laplace", "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert laplace.conjugate_gradient is cg
    metrics = tracer_mod.command_metrics(tracer.commands[-1])
    assert metrics["laplace.cg_calls"] >= 1
    assert metrics["laplace.cg_iters"] >= 1
    assert metrics["geometry.refine_calls"] == 1
