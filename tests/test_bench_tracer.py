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


def test_tracer_counts_a_p_laplace_solve_and_its_certificate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "unit_square", "n": 6},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "sin(3 * x * y) + x"},
    }))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        rc = tracer.command(main, ["solve-plap", "--p", "4", "--certificate",
                                   "--config", str(cfg), "--out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert rc == 0
    spans = tracer.commands[-1]
    metrics = tracer_mod.command_metrics(spans)
    assert metrics["plaplace.irls_iters"] >= 1
    # the p rungs 3 and 4, then the final stage
    assert metrics["plaplace.stages"] == 3
    assert any(s.key == "plaplace.certificate" for s in spans)


def test_tracer_sees_the_sweep_cells(tmp_path, monkeypatch):
    # The sweep_cusp workload's per-layer split needs the sweep to call
    # refine, partition_by_tags and solve_p_laplace through singfem.cli.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "unit_square", "n": 2},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x + 0.2 * y"},
        "p_values": [3.0],
        "levels": [0, 1],
    }))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        rc = tracer.command(main, ["sweep", "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer_mod.command_metrics(tracer.commands[-1])
    # Only Newton stages count: level 0 runs the p rung 3 and the final
    # stage, level 1 starts from the prolonged level-0 minimizer and runs
    # the final stage alone; neither warm_start entry is a stage.
    assert metrics["plaplace.stages"] == 3
    assert metrics["plaplace.useful_stages"] / metrics["plaplace.stages"] == 1.0
    assert metrics["fem.stiffness_calls"] == 1  # the level-0 p = 2 warm start
    assert metrics["geometry.refine_calls"] >= 1
    assert metrics["geometry.partition_calls"] >= 1
