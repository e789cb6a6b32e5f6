import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from singfem import cli, geometry, laplace, verify
from singfem.cli import ConfigError, compile_expression, config_hash, main, substream_seed
from singfem.geometry import Mesh


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def laplace_config(tmp_path, f="x", extra=None):
    cfg = {
        "domain": {"kind": "unit_square", "n": 4},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": f, "g": "0", "theta": "nx"},
    }
    cfg.update(extra or {})
    return write_config(tmp_path / "cfg.json", cfg)


# -- helpers ---------------------------------------------------------------------


def test_config_hash_is_order_independent():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_substream_seed_is_stable_and_label_sensitive():
    assert substream_seed(7, "x") == substream_seed(7, "x")
    assert substream_seed(7, "x") != substream_seed(7, "y")
    assert substream_seed(7, "x") != substream_seed(8, "x")
    assert 0 <= substream_seed(0, "anything") < 2**64


def test_expression_whitelist():
    fn = compile_expression("sin(pi * x) + r", "data.g")
    out = fn(x=np.asarray([0.5]), y=np.asarray([0.0]))
    assert out[0] == pytest.approx(1.5)
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("__import__('os')", "data.g")
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("open('/etc/passwd')", "data.g")
    with pytest.raises(ConfigError, match="invalid expression"):
        compile_expression("x +", "data.g")
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("nx", "data.g")  # normals only for flux data


# -- mesh ------------------------------------------------------------------------


def test_mesh_command_writes_hashed_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.json", {"domain": {"kind": "unit_square", "n": 3}})
    out = tmp_path / "artifacts"
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "mesh.json").read_text())
    assert payload["config_hash"]
    assert payload["mesh"]["vertices"]
    assert "16 vertices" in capsys.readouterr().out

    first = (out / "mesh.json").read_bytes()
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "mesh.json").read_bytes() == first


# -- solve commands ----------------------------------------------------------------


def test_solve_laplace_end_to_end(tmp_path):
    cfg = laplace_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["info"]["residual"] <= 1e-10
    values = np.asarray(payload["solution"]["values"])
    xs = np.asarray(payload["mesh"]["vertices"])[:, 0]
    assert np.max(np.abs(values - xs)) <= 1e-9


def _digest_of_artifact(out, command):
    """(embedded mesh_hash, content hash of the embedded mesh)."""
    if command == "mesh":
        payload = json.loads((out / "mesh.json").read_text())
        digest = payload["mesh_hash"]
    else:
        payload = json.loads((out / "solution.json").read_text())
        digest = payload["solution"]["mesh_hash"]
    return digest, Mesh.from_json_dict(payload["mesh"]).content_hash()


def _record_mesh_encodes(monkeypatch):
    """Record every Mesh.json_texts call (the meshes list) and the array each
    numpy row kernel encodes (the ints and floats lists)."""
    meshes, ints, floats = [], [], []
    texts = Mesh.json_texts
    monkeypatch.setattr(Mesh, "json_texts", lambda self: meshes.append(self) or texts(self))
    for name, calls in (("_int_rows_json", ints), ("_float_rows_json", floats)):
        kernel = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda a, kernel=kernel, calls=calls: calls.append(a) or kernel(a))
    return meshes, ints, floats


ARTIFACT_CONFIGS = {
    "square": {"domain": {"kind": "unit_square", "n": 4},
               "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
               "data": {"f": "x", "g": "0", "theta": "nx"}},
    # Refined meshes whose non-dyadic coordinates have reprs of up to 23 characters.
    "cusp": {"domain": {"kind": "cusp", "k": 3, "n": 3}, "refine": 1,
             "partition": {"dirichlet": ["right"], "neumann": ["lower", "upper"]},
             "data": {"f": "x", "g": "y", "theta": "nx"}},
    "annulus": {"domain": {"kind": "annulus", "n_radial": 2, "n_angular": 8}, "refine": 1,
                "partition": {"dirichlet": ["outer"], "neumann": ["inner"]},
                "data": {"f": "1", "g": "x", "theta": "ny"}},
}


COMMANDS = [("mesh", []), ("solve-laplace", []), ("solve-neumann", []),
            ("solve-plap", ["--p", "3"])]


def _artifact_ids(domains):
    return [pytest.param(command, extra, domain,
                         id=f"{command}-extra{i}" + ("" if domain == "square" else f"-{domain}"))
            for domain in domains for i, (command, extra) in enumerate(COMMANDS)]


@pytest.mark.parametrize("command, extra, domain", _artifact_ids(["square", "cusp"]))
def test_commands_build_the_mesh_dict_once(tmp_path, monkeypatch, command, extra, domain):
    """Each numpy row kernel runs exactly once per command, on the mesh's
    triangles and on its vertices; the streamed bytes are exactly json's
    sorted text of their content, and the embedded hash is the embedded
    mesh's (the cusp's mesh keeps its singular vertex)."""
    meshes, ints, floats = _record_mesh_encodes(monkeypatch)
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path / "c.json",
                                                   ARTIFACT_CONFIGS[domain]),
                 "--out", str(out), *extra]) == 0
    assert len(ints) == 1 and ints[0] is meshes[0].triangles
    assert len(floats) == 1 and floats[0] is meshes[0].vertices
    assert bool(meshes[0].singular_vertices) == (domain == "cusp")
    for path in out.glob("*.json"):
        data = path.read_bytes()
        assert data == json.dumps(json.loads(data), sort_keys=True).encode()
    digest, recomputed = _digest_of_artifact(out, command)
    assert digest == recomputed


@pytest.mark.parametrize("command, extra, domain", _artifact_ids(ARTIFACT_CONFIGS))
def test_artifact_text_is_the_sorted_json_dumps_of_its_content(tmp_path, command,
                                                                extra, domain):
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path / "c.json",
                                                   ARTIFACT_CONFIGS[domain]),
                 "--out", str(out), *extra]) == 0
    text = (out / ("mesh.json" if command == "mesh" else "solution.json")).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True)


@pytest.mark.parametrize("command, extra", [
    ("mesh", []),
    ("solve-laplace", []),
    ("solve-plap", ["--p", "3"]),
])
def test_commands_encode_the_vertex_list_once(tmp_path, monkeypatch, command, extra):
    """json encodes neither number list of the mesh: the vertex list is
    encoded once, by the float-row kernel, and the triangle list once, by
    the integer-row kernel."""
    meshes, ints, floats = _record_mesh_encodes(monkeypatch)
    objects = []
    iterencode = json.JSONEncoder.iterencode

    def counting_iterencode(self, o, *args, **kwargs):
        objects.append(o)
        return iterencode(self, o, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
    assert main([command, "--config", laplace_config(tmp_path),
                 "--out", str(tmp_path / "run"), *extra]) == 0
    mesh = meshes[0]

    def count(target):
        def holds(obj):
            return obj == target or (
                isinstance(obj, dict) and any(holds(v) for v in obj.values()))
        return sum(holds(o) for o in objects)

    assert count(mesh.vertices.tolist()) == 0
    assert count(mesh.triangles.tolist()) == 0
    assert [a is mesh.vertices for a in floats] == [True]
    assert [a is mesh.triangles for a in ints] == [True]


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    code = "import sys, singfem.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_solve_laplace_refuses_changed_config_overwrite(tmp_path):
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", laplace_config(tmp_path), "--out", str(out)]) == 0
    before = (out / "solution.json").read_bytes()
    other = laplace_config(tmp_path, f="x + y")
    assert main(["solve-laplace", "--config", other, "--out", str(out)]) == 2
    assert (out / "solution.json").read_bytes() == before
    record = json.loads((out / "error.json").read_text())
    assert record["exit_code"] == 2
    assert "refusing to overwrite" in record["message"]


SWEEP_CONFIG = {
    "domain": {"kind": "unit_square", "n": 2},
    "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
    "data": {"f": "x + 0.2 * y"},
    "p_values": [2.0],
    "levels": [0],
}
VERIFY_CONFIG = {"levels": 3, "base_n": 4}


def _ran_before_the_claim(*args, **kwargs):
    raise AssertionError("a solve ran before the artifacts were claimed")


@pytest.mark.parametrize("command, artifacts, cfg, changed, stub", [
    (["solve-laplace"], ["solution.json"], ARTIFACT_CONFIGS["square"],
     {"data": {"f": "x + y"}}, lambda patch, fail: patch.setattr(cli, "solve_mixed", fail)),
    (["solve-plap"], ["solution.json"], {**ARTIFACT_CONFIGS["square"], "p": 3.0},
     {"p": 4.0}, lambda patch, fail: patch.setattr(cli, "solve_p_laplace", fail)),
    (["sweep"], ["sweep.csv"], SWEEP_CONFIG, {"p_values": [3.0]},
     lambda patch, fail: patch.setattr(cli, "solve_p_laplace", fail)),
    (["verify", "ibp_smooth"], ["report.csv", "summary.json"], VERIFY_CONFIG,
     {"base_n": 5},
     lambda patch, fail: patch.setitem(verify.EXPERIMENTS, "ibp_smooth", fail)),
], ids=["solve-laplace", "solve-plap", "sweep", "verify"])
def test_a_changed_config_is_refused_before_anything_runs(tmp_path, monkeypatch, command,
                                                          artifacts, cfg, changed, stub):
    out = tmp_path / "run"
    assert main([*command, "--config", write_config(tmp_path / "a.json", cfg),
                 "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in artifacts}
    stub(monkeypatch, _ran_before_the_claim)
    other = write_config(tmp_path / "b.json", {**cfg, **changed})
    assert main([*command, "--config", other, "--out", str(out)]) == 2
    assert "refusing to overwrite" in json.loads((out / "error.json").read_text())["message"]
    assert {name: (out / name).read_bytes() for name in artifacts} == before


def test_verify_claims_both_artifacts_before_it_runs(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps({"config_hash": "stale"}))
    monkeypatch.setitem(verify.EXPERIMENTS, "ibp_smooth", _ran_before_the_claim)
    assert main(["verify", "ibp_smooth", "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["message"].startswith(f"refusing to overwrite {out / 'summary.json'}")
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command, artifact, cfg", [
    (["mesh"], "mesh.json", {}),
    (["verify", "ibp_smooth"], "report.csv", VERIFY_CONFIG),
], ids=["mesh", "verify"])
def test_an_unwritable_artifact_exits_2_with_error_record(tmp_path, capsys, command,
                                                          artifact, cfg):
    out = tmp_path / "run"
    out.mkdir()
    (out / artifact).symlink_to(tmp_path / "missing" / artifact)  # dangling
    assert main([*command, "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert record["message"].startswith(f"cannot write {out / artifact} (")
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


@pytest.mark.parametrize("command, cfg, artifacts", [
    (["mesh"], ARTIFACT_CONFIGS["square"], ["mesh.json"]),
    (["solve-laplace"], ARTIFACT_CONFIGS["square"], ["solution.json"]),
    (["solve-neumann"], ARTIFACT_CONFIGS["square"], ["solution.json"]),
    (["solve-plap", "--p", "3"], ARTIFACT_CONFIGS["square"], ["solution.json"]),
    (["verify", "ibp_smooth"], VERIFY_CONFIG, ["report.csv", "summary.json"]),
    (["sweep"], SWEEP_CONFIG, ["sweep.csv"]),
], ids=["mesh", "solve-laplace", "solve-neumann", "solve-plap", "verify", "sweep"])
def test_every_artifact_embeds_the_hash_of_its_run(tmp_path, monkeypatch, command, cfg,
                                                   artifacts):
    hashes = []
    monkeypatch.setattr(cli, "config_hash",
                        lambda effective: hashes.append(config_hash(effective)) or hashes[-1])
    out = tmp_path / "run"
    assert main([*command, "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    assert len(hashes) == 1
    assert [cli._embedded_hash(out / name) for name in artifacts] == hashes * len(artifacts)


def test_solve_laplace_theta_needs_neumann_region(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "domain": {"kind": "unit_square", "n": 3},
        "partition": {"dirichlet": ["left", "right", "bottom", "top"]},
        "data": {"theta": "nx"},
    })
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert "data.theta" in record["message"]


def test_unknown_config_keys_warn_on_stderr(tmp_path, capsys):
    cfg = laplace_config(tmp_path, extra={"bogus": 1})
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out)]) == 0
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path):
    out = tmp_path / "run"
    code = main(["solve-laplace", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)])
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


def test_invalid_seed_is_a_usage_error(tmp_path):
    cfg = laplace_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out),
                 "--seed", "-3"]) == 2


def test_nan_rtol_in_config_is_a_usage_error(tmp_path):
    cfg = laplace_config(tmp_path, extra={"rtol": float("nan")})
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert "NaN" in record["message"]
    assert not (out / "solution.json").exists()


def test_nan_p_in_config_is_a_usage_error(tmp_path):
    base = {
        "domain": {"kind": "unit_square", "n": 3},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x"},
    }
    cfg = write_config(tmp_path / "nan.json", {**base, "p": float("nan")})
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert not (out / "solution.json").exists()

    cfg = write_config(tmp_path / "p.json", base)
    out = tmp_path / "flag"
    assert main(["solve-plap", "--config", cfg, "--out", str(out), "--p", "inf"]) == 2
    assert "p: must be finite" in json.loads((out / "error.json").read_text())["message"]


@pytest.mark.parametrize("command, field, expr", [
    ("solve-laplace", "data.g", "log(x)"),
    ("solve-neumann", "data.theta", "1/x"),
    ("solve-plap", "data.f", "sqrt(x - 2)"),
])
def test_non_finite_data_expression_is_a_usage_error(tmp_path, capsys, command, field,
                                                       expr):
    cfg = {"domain": {"kind": "unit_square", "n": 4}, "data": {field.split(".")[1]: expr}}
    if command != "solve-neumann":
        cfg["partition"] = {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}
    if command == "solve-plap":
        cfg["p"] = 3
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{field}: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("expr, reason", [
    ("sin", "does not evaluate to numbers"),
    ("x(1)", "does not evaluate to numbers"),
    ("1j*x", "is not real at every point"),
    ("[x, y]", "is not an arithmetic expression (List is not allowed)"),
])
def test_data_expression_without_one_real_value_per_point_is_a_usage_error(
        tmp_path, capsys, expr, reason):
    cfg = {"domain": {"kind": "unit_square", "n": 4},
           "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
           "data": {"g": expr}}
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve-laplace", "--config", write_config(tmp_path / "c.json", cfg),
                     "--out", str(out)])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"data.g: {expr!r} {reason}")
    assert not caught
    assert "Warning" not in capsys.readouterr().err
    assert not (out / "solution.json").exists()


def _solve_laplace_with_g(tmp_path, expr):
    cfg = {"domain": {"kind": "unit_square", "n": 4},
           "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
           "data": {"g": expr}}
    out = tmp_path / "run"
    code = main(["solve-laplace", "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)])
    return code, out


def test_data_expression_cannot_reach_python_objects_through_a_lambda(tmp_path):
    # The lambda's body is a nested code object: its names and attributes
    # are checked only because the whole syntax tree is.
    expr = "(lambda: ().__class__.__base__.__subclasses__().__len__())()"
    code, out = _solve_laplace_with_g(tmp_path, expr)
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"data.g: {expr!r} is not an arithmetic expression")
    assert not (out / "solution.json").exists()


def test_a_rejected_data_expression_runs_nothing(tmp_path):
    marker = tmp_path / "ran.txt"
    expr = ("(lambda: [c for c in ().__class__.__base__.__subclasses__() "
            "if c.__name__ == 'catch_warnings'][0]()._module.__builtins__['open']"
            f"({str(marker)!r}, 'w').close() or 0)()")
    code, out = _solve_laplace_with_g(tmp_path, expr)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"
    assert not marker.exists()


@pytest.mark.parametrize("expr", ["9**9**9", "9**9**7 * x", "-(2**600 * 2**600)"])
def test_an_integer_past_float_range_is_refused_before_it_is_computed(tmp_path, expr):
    # 9**9**9 would run for hours of Python integer arithmetic
    code, out = _solve_laplace_with_g(tmp_path, expr)
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"] == (f"data.g: {expr!r} is not finite at every point "
                                 "(an integer past float range)")


@pytest.mark.parametrize("expr", ["2**1023", "-2**1023 * x", "(-1)**10**100", "9**9**2"])
def test_integers_within_float_range_still_evaluate(expr):
    x = np.linspace(0.0, 1.0, 5)
    fn = compile_expression(expr, "data.g")
    ref = np.asarray(eval(expr, {"x": x}), dtype=np.float64)
    assert np.array_equal(fn(x=x, y=x) * np.ones_like(x), ref * np.ones_like(x))


@pytest.mark.parametrize("expr", ["sin(x, y)", "hypot(x)", "hypot(x, y=y)", "maximum(x)"])
def test_data_functions_take_their_positional_arguments_only(tmp_path, expr):
    # A ufunc's extra positional argument is its output array.
    with pytest.raises(ConfigError, match="positional argument"):
        compile_expression(expr, "data.g")
    code, out = _solve_laplace_with_g(tmp_path, expr)
    assert code == 2
    assert json.loads((out / "error.json").read_text())["message"].startswith("data.g: ")


@pytest.mark.parametrize("command", ["mesh", "solve-laplace"])
def test_refined_artifact_with_five_digit_indices_round_trips(tmp_path, command):
    cfg = {"domain": {"kind": "unit_square", "n": 64}, "refine": 1}
    if command == "solve-laplace":
        cfg.update(partition={"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
                   data={"f": "x", "g": "y"})
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    text = (out / ("mesh.json" if command == "mesh" else "solution.json")).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True)
    assert len(json.loads(text)["mesh"]["vertices"]) == 16641
    digest, recomputed = _digest_of_artifact(out, command)
    assert digest == recomputed


def test_library_value_error_exits_1_with_error_record(tmp_path, monkeypatch):
    from singfem import cli

    def failing_solve(*args, **kwargs):
        raise ValueError("solver rejected its input")

    monkeypatch.setattr(cli, "solve_mixed", failing_solve)
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", laplace_config(tmp_path),
                 "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "ValueError", "message": "solver rejected its input",
                      "exit_code": 1}
    assert not (out / "solution.json").exists()


def test_threads_flag_and_key_are_gone(tmp_path, capsys):
    cfg = laplace_config(tmp_path, extra={"threads": 2})
    with pytest.raises(SystemExit) as err:
        main(["solve-laplace", "--config", cfg, "--out", str(tmp_path / "a"),
              "--threads", "2"])
    assert err.value.code == 2
    assert main(["solve-laplace", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_incompatible_neumann_data_exits_1(tmp_path):
    cfg = write_config(tmp_path / "n.json", {
        "domain": {"kind": "unit_square", "n": 4},
        "data": {"g": "1", "theta": "0"},
    })
    out = tmp_path / "run"
    assert main(["solve-neumann", "--config", cfg, "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "CompatibilityError"
    assert record["exit_code"] == 1


@pytest.mark.parametrize("command, data, error", [
    ("solve-laplace", {"f": "1e300 * x", "g": "0", "theta": "nx"}, "SolverError"),
    ("solve-neumann", {"theta": "1e300 * (nx*x + ny*y) - 2e300"}, "CompatibilityError"),
])
def test_a_gate_whose_norm_overflows_fails_the_run(tmp_path, command, data, error):
    # The normalizers of the weak residual and of the compatibility defect
    # overflow to inf; a gate "x > tol" passed any x then.  The norms are
    # taken without a RuntimeWarning (the suite makes one an error).
    cfg = {"domain": {"kind": "unit_square", "n": 4}, "data": data}
    if command == "solve-laplace":
        cfg["partition"] = {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == error and "a norm overflowed" in record["message"]
    assert not (out / "solution.json").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("solve-laplace",
     {"partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
      "data": {"f": "x", "g": "1", "theta": "nx * y"}},
     "mixed solve left weak residual 4.988e-04, not at most 1.0e-10"),
    ("solve-neumann", {"data": {"g": "0", "theta": "nx * y + ny * x"}},
     "neumann solve left weak residual 1.027e-04"),
], ids=["mixed", "neumann"])
def test_a_loose_solve_fails_its_residual_gate(tmp_path, monkeypatch, command, extra, message):
    # MG-PCG stopped at relative residual 1e-2 leaves a weak residual far
    # above the gate (1e-10; for Neumann data plus its defect, here 0).
    monkeypatch.setattr(laplace, "_BAND_BUDGET", 0)
    cfg = {"domain": {"kind": "unit_square", "n": 8}, "refine": 1, "rtol": 1e-2, **extra}
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text()) == {
        "error": "SolverError", "exit_code": 1, "message": message}
    assert not (out / "solution.json").exists()


def test_solve_laplace_without_free_vertices_returns_the_dirichlet_data(tmp_path):
    # n = 1 has four boundary vertices and no interior one
    cfg = write_config(tmp_path / "c.json", {
        "domain": {"kind": "unit_square", "n": 1},
        "partition": {"dirichlet": ["left", "right", "bottom", "top"]},
        "data": {"f": "x + 2 * y"},
    })
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["info"] == {"iterations": 0, "residual": 0.0}
    xy = np.asarray(payload["mesh"]["vertices"])
    assert payload["solution"]["values"] == (xy[:, 0] + 2 * xy[:, 1]).tolist()


def test_solve_neumann_gauge_flag(tmp_path):
    cfg = write_config(tmp_path / "n.json", {
        "domain": {"kind": "unit_square", "n": 4},
        "data": {"g": "0", "theta": "nx"},
    })
    out = tmp_path / "run"
    assert main(["solve-neumann", "--config", cfg, "--out", str(out),
                 "--gauge", "vertex"]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["info"]["gauge"] == "vertex"
    assert payload["solution"]["values"][0] == 0.0


def test_solve_plap_requires_p_and_runs_certificate(tmp_path):
    base = {
        "domain": {"kind": "unit_square", "n": 3},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x"},
    }
    cfg = write_config(tmp_path / "p.json", base)
    out1 = tmp_path / "nop"
    assert main(["solve-plap", "--config", cfg, "--out", str(out1)]) == 2

    out2 = tmp_path / "yes"
    assert main(["solve-plap", "--config", cfg, "--out", str(out2),
                 "--p", "2.5", "--certificate"]) == 0
    payload = json.loads((out2 / "solution.json").read_text())
    assert payload["info"]["p"] == 2.5
    assert payload["info"]["certificate"]["passed"] is True
    assert payload["info"]["stationarity"] <= 1e-8


def test_the_certificate_passes_a_minimizer_constant_up_to_round_off(tmp_path):
    # Dirichlet data on the cusp's right side only: the minimizer is u = 1
    # up to round-off, its energy about 1e-13, below the margins' round-off.
    cfg = write_config(tmp_path / "c.json", {
        "domain": {"kind": "cusp", "k": 3, "n": 3}, "refine": 1,
        "partition": {"dirichlet": ["right"], "neumann": ["lower", "upper"]},
        "data": {"f": "x"},
    })
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", cfg, "--out", str(out), "--p", "3",
                 "--certificate"]) == 0
    info = json.loads((out / "solution.json").read_text())["info"]
    assert info["energy"] < 1e-12
    assert info["certificate"]["passed"] is True
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("value", ["no", "true", 0, 1, [], None])
def test_certificate_field_must_be_a_json_boolean(tmp_path, value):
    cfg = write_config(tmp_path / "c.json", {
        "domain": {"kind": "unit_square", "n": 4},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x"}, "p": 3.0, "certificate": value,
    })
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("certificate:")
    assert not (out / "solution.json").exists()
    # the flag forces the certificate on, whatever the file says
    assert main(["solve-plap", "--config", cfg, "--out", str(out), "--certificate"]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["info"]["certificate"]["passed"] is True


def _plap_config(tmp_path, n, p):
    return write_config(tmp_path / "plap.json", {
        "domain": {"kind": "unit_square", "n": n},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x*y"},
        "p": p,
    })


@pytest.mark.parametrize("n, p", [(4, 1e300), (8, 1000)])
def test_solve_plap_with_overflowing_p_exits_1(tmp_path, n, p):
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", _plap_config(tmp_path, n, p),
                 "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "PLaplaceError" and record["exit_code"] == 1
    assert not (out / "solution.json").exists()


def test_solve_plap_rerun_is_byte_identical(tmp_path):
    cfg = _plap_config(tmp_path, 6, 3.0)
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["solve-plap", "--config", cfg, "--out", str(out),
                     "--certificate"]) == 0
    first, second = ((out / "solution.json").read_bytes() for out in runs)
    assert first == second


@pytest.mark.parametrize("p", [1.5, 4.0, 8.0])
def test_solve_plap_artifact_does_not_depend_on_the_gradient_operator(tmp_path, monkeypatch,
                                                                     p):
    # Every element gradient of the solve and the certificate goes through
    # plaplace._grad_values; fem.gradient's einsum must give the same bytes.
    from singfem import plaplace

    cfg = _plap_config(tmp_path, 8, p)
    assert main(["solve-plap", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--certificate"]) == 0
    monkeypatch.setattr(plaplace, "_grad_values", lambda mesh, G, values: np.einsum(
        "tid,ti->td", mesh.grad_lambda, values[mesh.triangles]))
    assert main(["solve-plap", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--certificate"]) == 0
    first, second = ((tmp_path / out / "solution.json").read_bytes() for out in "ab")
    assert first == second


def test_embedded_hash_reads_only_the_head_of_a_json_artifact(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["solve-laplace", "--config", laplace_config(tmp_path),
                 "--out", str(out)]) == 0
    artifact = out / "solution.json"
    expected = json.loads(artifact.read_text())["config_hash"]

    def no_parse(*args, **kwargs):
        raise AssertionError("the whole artifact was parsed")

    monkeypatch.setattr(json, "loads", no_parse)
    assert cli._embedded_hash(artifact) == expected
    assert cli._claim(out, expected, "solution.json") == [artifact]


_HASH = "0123456789abcdef" * 4


@pytest.mark.parametrize("text, expected", [
    (json.dumps({"config_hash": _HASH, "info": {}}, indent=2), _HASH),
    ("  " + json.dumps({"config_hash": _HASH}), _HASH),
    (json.dumps({"a": 1, "config_hash": _HASH}), _HASH),
    (json.dumps({"config_hash": _HASH + "0"}), _HASH + "0"),
    (json.dumps({"config_hash": _HASH})[:-1], None),
], ids=["indented", "leading-space", "hash-not-first", "long-hash", "truncated"])
def test_embedded_hash_falls_back_to_the_full_parse(tmp_path, text, expected):
    # A file whose head is not the writer's keeps the full parse's verdict.
    path = tmp_path / "solution.json"
    path.write_text(text)
    assert cli._embedded_hash(path) == expected


# -- verify and sweep --------------------------------------------------------------


def test_verify_experiment_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", {"levels": 3, "base_n": 4})
    out = tmp_path / "run"
    assert main(["verify", "ibp_smooth", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, sort_keys=True)
    assert summary["pass"] is True
    data = (out / "report.csv").read_bytes()
    csv_lines = data.decode().splitlines()
    assert data == ("\n".join(csv_lines) + "\n").encode()  # "\n" line ends, untranslated
    assert csv_lines[0].startswith("# config_hash=")
    assert csv_lines[1].startswith("level,h,")


def test_sweep_rerun_is_bit_identical(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "domain": {"kind": "unit_square", "n": 2},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x + 0.2 * y"},
        "p_values": [2.0, 3.0],
        "levels": [0, 1],
    })
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert first == ("\n".join(lines) + "\n").encode()  # "\n" line ends, untranslated
    assert lines[1] == "p,level,h,n_vertices,energy,stationarity,alpha,fit_r2,status"
    assert len(lines) == 2 + 4  # two exponents times two levels
    assert all(line.endswith(",ok") for line in lines[2:])

    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == first


@pytest.mark.parametrize("command", [["sweep"], ["verify", "holder_cusp"]])
@pytest.mark.parametrize("p_values, message", [
    ('["x"]', "expected a number"),
    ("[null]", "expected a number"),
    ("[1e309]", "must be finite"),
])
def test_bad_exponent_lists_are_usage_errors(tmp_path, command, p_values, message):
    path = tmp_path / "s.json"
    path.write_text(
        '{"domain": {"kind": "unit_square", "n": 2}, '
        '"partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}, '
        f'"p_values": {p_values}}}'
    )
    out = tmp_path / "run"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and message in record["message"]


# -- the experiment registry ---------------------------------------------------------

CHEAP_EXPERIMENTS = {
    "manufactured_dirichlet": {"levels": 3, "base_n": 4},
    "neumann_harmonic": {"levels": 3, "base_n": 4},
    "plap_affine": {"levels": 3, "base_n": 4},
    "ibp_smooth": {"levels": 3, "base_n": 4},
    "counterexample_punctured": {"levels": 1},
    "poincare_2": {"levels": 2},
    "holder_cusp": {"n": 3, "n_pairs": 100, "p_values": [2.0]},
}


def test_cheap_configs_cover_the_registry():
    from singfem import verify

    assert set(CHEAP_EXPERIMENTS) == set(verify.EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(CHEAP_EXPERIMENTS))
def test_every_experiment_runs_through_main(tmp_path, name):
    cfg = write_config(tmp_path / "v.json", CHEAP_EXPERIMENTS[name])
    out = tmp_path / "run"
    assert main(["verify", name, "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["config_hash"] == config_hash(
        {"command": "verify", "experiment": name, "config": CHEAP_EXPERIMENTS[name]})
    assert (out / "report.csv").read_text().startswith(
        f"# config_hash={summary['config_hash']}\n")


def test_verify_warns_about_keys_its_experiment_does_not_take(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", {"levels": 2, "k": 3})
    assert main(["verify", "poincare_2", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 0
    err = capsys.readouterr().err
    assert "unknown config key 'k'" in err
    assert "'levels'" not in err


# The verify hash covers the experiment's own keys, as written.  A config
# holding only those keys keeps the hash it had when the whole config was
# hashed: these two are pinned from then.
@pytest.mark.parametrize("cfg, config_hash_", [
    ({}, "e0107c6183de828008c574716741d045a8dfea59c973ecc4ec9eb322e10e853b"),
    ({"levels": 2}, "a899497dd2b300468bd99e5c57ec1ab9e724efbf49228349ae782b2f9a59f160"),
], ids=["defaults", "levels"])
def test_verify_hashes_only_the_keys_its_experiment_takes(tmp_path, cfg, config_hash_):
    out = tmp_path / "run"
    for extra, flags in [({}, []), ({"k": 3}, []), ({}, ["--seed", "1"]), ({}, ["--seed", "2"])]:
        path = write_config(tmp_path / "v.json", {**cfg, **extra})
        assert main(["verify", "poincare_2", "--config", path, *flags, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config_hash"] == config_hash_


def test_verify_with_a_seed_refuses_a_rerun_with_another_seed(tmp_path):
    path = write_config(tmp_path / "v.json", CHEAP_EXPERIMENTS["holder_cusp"])
    out = tmp_path / "run"
    assert main(["verify", "holder_cusp", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    first = (out / "report.csv").read_bytes()
    assert main(["verify", "holder_cusp", "--config", path, "--seed", "2", "--out", str(out)]) == 2
    assert "refusing to overwrite" in json.loads((out / "error.json").read_text())["message"]
    assert (out / "report.csv").read_bytes() == first


PLAP_CONFIG = {
    "domain": {"kind": "unit_square", "n": 3},
    "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
    "data": {"f": "x"}, "p": 3.0,
}


def test_solve_plap_without_the_certificate_ignores_the_seed(tmp_path):
    # The seed draws only the certificate's directions.
    path = write_config(tmp_path / "p.json", PLAP_CONFIG)
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    first = (out / "solution.json").read_bytes()
    assert main(["solve-plap", "--config", path, "--seed", "2", "--out", str(out)]) == 0
    assert (out / "solution.json").read_bytes() == first


def test_solve_plap_with_the_certificate_refuses_a_rerun_with_another_seed(tmp_path):
    path = write_config(tmp_path / "p.json", {**PLAP_CONFIG, "certificate": True})
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", path, "--seed", "1", "--out", str(out)]) == 0
    first = (out / "solution.json").read_bytes()
    assert main(["solve-plap", "--config", path, "--seed", "2", "--out", str(out)]) == 2
    assert "refusing to overwrite" in json.loads((out / "error.json").read_text())["message"]
    assert (out / "solution.json").read_bytes() == first


# Literal hashes: a change that moves every config_hash fails here first.
@pytest.mark.parametrize("command, cfg, artifact, config_hash_", [
    (["mesh"], {}, "mesh.json",
     "424bab517dc6c946bf1e98ea533312e67588384e6ade752edd498309a30ffed1"),
    (["solve-plap"], PLAP_CONFIG, "solution.json",
     "a9b3498712e9d6efe9f4b2cb7589d60baafdc44093753154cda89f7d0d963917"),
    (["solve-plap", "--certificate"], PLAP_CONFIG, "solution.json",
     "286ca6fc1abafcaa3460cd3b19bb2b90f4cdd5e3133269c61f09c4ad45a660e6"),
], ids=["mesh-defaults", "solve-plap", "solve-plap-certificate"])
def test_config_hashes_are_pinned(tmp_path, command, cfg, artifact, config_hash_):
    out = tmp_path / "run"
    path = write_config(tmp_path / "c.json", cfg)
    assert main([*command, "--config", path, "--out", str(out)]) == 0
    assert cli._embedded_hash(out / artifact) == config_hash_


def test_solve_neumann_reads_no_partition(tmp_path, monkeypatch, capsys):
    # A "Dirichlet" region in the config neither pins the solve (vertex 0
    # is the one pinned vertex) nor drops vertices from the residual gate.
    partitions = []
    solve = cli.solve_neumann
    monkeypatch.setattr(cli, "solve_neumann", lambda problem, **kwargs: partitions.append(
        problem.partition) or solve(problem, **kwargs))
    base = {"domain": {"kind": "unit_square", "n": 4}, "data": {"g": "0", "theta": "nx"}}
    sides = {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}
    plain, split = tmp_path / "plain", tmp_path / "split"
    assert main(["solve-neumann", "--config", write_config(tmp_path / "a.json", base),
                 "--out", str(plain)]) == 0
    assert main(["solve-neumann", "--config",
                 write_config(tmp_path / "b.json", {**base, "partition": sides}),
                 "--out", str(split)]) == 0
    assert "warning: ignoring unknown config key 'partition'" in capsys.readouterr().err
    assert [len(part.region_vertices("dirichlet")) for part in partitions] == [0, 0]
    assert (split / "solution.json").read_bytes() == (plain / "solution.json").read_bytes()


@pytest.mark.parametrize("schedule", ["[null]", '["x"]', "[-1]", "[]", "0.01"])
def test_bad_radius_schedules_are_usage_errors(tmp_path, schedule):
    path = tmp_path / "v.json"
    path.write_text(f'{{"levels": 1, "r_in_schedule": {schedule}}}')
    out = tmp_path / "run"
    assert main(["verify", "counterexample_punctured", "--config", str(path),
                 "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("r_in_schedule: ")


@pytest.mark.parametrize("name, cfg, field", [
    ("ibp_smooth", {"levels": 2}, "levels"),
    ("ibp_smooth", {"base_n": 1}, "base_n"),
    ("plap_affine", {"p": 1.0}, "p"),
    ("counterexample_punctured", {"p": 2.0}, "p"),
    ("poincare_2", {"levels": 1}, "levels"),
    ("holder_cusp", {"n_pairs": 9}, "n_pairs"),
    ("holder_cusp", {"k": 0.5}, "k"),
    ("holder_cusp", {"n": 1}, "n"),
    ("holder_cusp", {"p_values": [2.0, 1.0]}, "p_values"),
    ("holder_cusp", {"n": 2.5}, "n"),
])
def test_out_of_range_experiment_parameters_are_usage_errors(tmp_path, name, cfg, field):
    out = tmp_path / "run"
    assert main(["verify", name, "--config", write_config(tmp_path / "v.json", cfg),
                 "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["message"].startswith(f"{field}: ")


def test_value_error_inside_an_experiment_exits_1(tmp_path, monkeypatch):
    from singfem import verify

    def failing_annulus(*args, **kwargs):
        raise ValueError("mesh generator rejected its input")

    monkeypatch.setattr(verify, "build_annulus", failing_annulus)
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "v.json", {"levels": 1})
    assert main(["verify", "counterexample_punctured", "--config", cfg,
                 "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "ValueError", "exit_code": 1,
                      "message": "mesh generator rejected its input"}


# -- config keys of the other commands ---------------------------------------------


def test_mesh_warns_about_a_data_object_once(tmp_path, capsys):
    cfg = write_config(tmp_path / "m.json", {
        "domain": {"kind": "unit_square", "n": 2}, "data": {"f": "x", "g": "1"}})
    assert main(["mesh", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "unknown config key" in line]
    assert warnings == ["warning: ignoring unknown config key 'data'"]


def test_solve_warns_about_data_keys_it_does_not_read(tmp_path, capsys):
    cfg = write_config(tmp_path / "n.json", {
        "domain": {"kind": "unit_square", "n": 3},
        "data": {"g": "0", "theta": "nx", "f": "x"},
    })
    assert main(["solve-neumann", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert "unknown config key 'data.f'" in capsys.readouterr().err


@pytest.mark.parametrize("domain, field", [
    ({"kind": "unit_square", "n": "8"}, "domain.n"),
    ({"kind": "unit_square", "n": 2.5}, "domain.n"),
    ({"kind": "unit_square", "n": True}, "domain.n"),
    ({"kind": "annulus", "n_radial": None}, "domain.n_radial"),
    ({"kind": "annulus", "r_in": "0.1"}, "domain.r_in"),
    ({"kind": "cusp", "k": [3]}, "domain.k"),
])
def test_malformed_domain_fields_are_usage_errors(tmp_path, domain, field):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "m.json", {"domain": domain})
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{field}: ")
    assert not (out / "mesh.json").exists()


@pytest.mark.parametrize("domain, unknown", [
    ({"kind": "unit_square", "n": 4, "seed": 5}, ["seed"]),
    ({"kind": "unit_square", "k": 7, "r_in": 0.3}, ["k", "r_in"]),
    ({"kind": "annulus", "n": 4}, ["n"]),
    ({"kind": "cusp", "n_angular": 99}, ["n_angular"]),
], ids=["square-seed", "square-k-r_in", "annulus-n", "cusp-n_angular"])
def test_a_field_its_generator_does_not_take_is_a_usage_error(tmp_path, domain, unknown):
    # A domain's fields are its generator's keyword parameters: a field
    # the kind ignores would otherwise move the hash and not the mesh.
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "m.json", {"domain": domain})
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text()) == {
        "error": "ConfigError", "exit_code": 2,
        "message": f"domain: unknown field(s) {unknown}"}
    assert not (out / "mesh.json").exists()


@pytest.mark.parametrize("domain, effective", [
    ({"kind": "unit_square"}, {"kind": "unit_square", "n": 8}),
    ({"kind": "annulus", "n_radial": 2},
     {"kind": "annulus", "r_in": 0.1, "r_out": 1.0, "n_radial": 2, "n_angular": 16}),
    ({"kind": "cusp", "k": 3}, {"kind": "cusp", "k": 3, "n": 8}),
], ids=["square", "annulus", "cusp"])
def test_the_effective_domain_is_its_kind_and_its_generator_parameters(
        tmp_path, monkeypatch, domain, effective):
    hashed = []
    monkeypatch.setattr(cli, "config_hash",
                        lambda config: hashed.append(config) or config_hash(config))
    cfg = write_config(tmp_path / "m.json", {"domain": domain})
    assert main(["mesh", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert hashed == [{"command": "mesh", "domain": effective, "refine": 0}]


def test_domain_numbers_enter_the_hash_as_written(tmp_path):
    def mesh_hash(domain, name):
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.json", {"domain": domain})
        assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
        return json.loads((out / "mesh.json").read_text())["config_hash"]

    # A float field keeps an integer as written (k = 3 hashes as 3); an
    # integer field written as a whole float is read as the integer.
    as_written = {"kind": "cusp", "k": 3, "n": 2}
    assert mesh_hash({"kind": "cusp", "k": 3, "n": 2}, "int_k") == config_hash(
        {"command": "mesh", "domain": as_written, "refine": 0})
    assert mesh_hash({"kind": "cusp", "k": 3.0, "n": 2}, "float_k") != mesh_hash(
        {"kind": "cusp", "k": 3, "n": 2}, "int_k")
    assert mesh_hash({"kind": "cusp", "k": 3, "n": 2.0}, "float_n") == mesh_hash(
        {"kind": "cusp", "k": 3, "n": 2}, "int_k")


# -- exit-code contract ---------------------------------------------------------------


def test_failed_verification_exits_1_with_error_record(tmp_path):
    cfg = write_config(tmp_path / "v.json",
                       {"levels": 1, "r_in_schedule": [0.05, 0.01], "p": 4})
    out = tmp_path / "run"
    assert main(["verify", "counterexample_punctured", "--config", cfg,
                 "--out", str(out)]) == 1
    assert json.loads((out / "summary.json").read_text())["pass"] is False
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "ChecksFailed", "exit_code": 1,
                      "message": "failed checks: r_in_gap_within_2pct"}


def test_failed_sweep_cell_exits_1_with_error_record(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "domain": {"kind": "unit_square", "n": 4},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x*y"},
        "p_values": [1e300],
        "levels": [0],
    })
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "sweep.csv").read_text().splitlines()[-1].endswith(",PLaplaceError")
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ChecksFailed" and record["exit_code"] == 1


@pytest.mark.parametrize("p_values, levels, chained, rc", [
    ([3.0], [0, 1, 2], [False, True, True], 0),
    ([3.0], [0, 2], [False, False], 0),
    ([3.0], [1, 0, 1], [False, False, True], 0),
    ([2.0, 3.0], [0, 1], [False, True, False, True], 0),  # each exponent restarts
    ([1e300], [0, 1], [False, False], 1),  # the failed level 0 passes nothing on
])
def test_sweep_starts_a_cell_from_the_previous_cell_on_its_parent(
        tmp_path, monkeypatch, p_values, levels, chained, rc):
    from singfem import cli

    calls = []  # (problem mesh, coarse, returned field or None) per cell
    solve = cli.solve_p_laplace

    def recording(problem, coarse=None):
        calls.append([problem.mesh, coarse, None])
        u, report = solve(problem, coarse=coarse)
        calls[-1][2] = u
        return u, report

    monkeypatch.setattr(cli, "solve_p_laplace", recording)
    cfg = write_config(tmp_path / "s.json", {
        "domain": {"kind": "unit_square", "n": 2},
        "partition": {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]},
        "data": {"f": "x + 0.2 * y"},
        "p_values": p_values,
        "levels": levels,
    })
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == rc
    assert [coarse is not None for _, coarse, _ in calls] == chained
    for (prev_mesh, _, prev_u), (mesh, coarse, _) in zip(calls, calls[1:]):
        if coarse is not None:
            assert coarse is prev_u and mesh.parent is prev_mesh


def test_failed_certificate_exits_1_with_error_record(tmp_path, monkeypatch):
    from singfem import cli
    from singfem.plaplace import OptimalityReport

    def failing_certificate(u, p, constraint, seed):
        return OptimalityReport(energy=0.0, stationarity=None, iterations=[],
                                certificate={"passed": False, "violations": 1})

    monkeypatch.setattr(cli, "minimality_certificate", failing_certificate)
    out = tmp_path / "run"
    assert main(["solve-plap", "--config", _plap_config(tmp_path, 3, 3.0),
                 "--out", str(out), "--certificate"]) == 1
    assert json.loads((out / "solution.json").read_text())["info"]["certificate"] == {
        "passed": False, "violations": 1}
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ChecksFailed" and record["exit_code"] == 1


def test_a_successful_run_removes_an_earlier_error_record(tmp_path, monkeypatch):
    from singfem import cli

    def failing_solve(*args, **kwargs):
        raise ValueError("solver rejected its input")

    out = tmp_path / "run"
    good = ["solve-laplace", "--config", laplace_config(tmp_path), "--out", str(out)]
    bad = write_config(tmp_path / "bad.json", {"domain": {"kind": "unit_square", "n": 4},
                                               "partition": {"dirichlet": ["west"]}})
    assert main(["solve-laplace", "--config", bad, "--out", str(out)]) == 2
    assert (out / "error.json").exists()
    assert main(good) == 0
    assert not (out / "error.json").exists()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "solve_mixed", failing_solve)
        assert main(good) == 1
    assert (out / "error.json").exists()
    assert main(good) == 0
    assert not (out / "error.json").exists()


def test_integer_beyond_the_float_range_is_a_usage_error(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"levels": 3, "base_n": 4, "p": 1' + "0" * 400 + "}")
    out = tmp_path / "run"
    assert main(["verify", "ibp_smooth", "--config", str(path), "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["message"] == (
        "p: must be finite, got inf")


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
def test_unreadable_config_file_is_a_usage_error(tmp_path, content):
    path = tmp_path / "cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    out = tmp_path / "run"
    assert main(["mesh", "--config", str(path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["message"].startswith("config: ")


@pytest.mark.parametrize("content", [b"\xff\xfe\x00garbage", b"[" + b" " * 10000 + b"\xff]"],
                         ids=["head", "tail"])
def test_an_undecodable_artifact_is_refused_like_another_configs(tmp_path, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "solution.json").write_bytes(content)
    assert main(["solve-laplace", "--config", laplace_config(tmp_path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and "refusing to overwrite" in record["message"]
    assert (out / "solution.json").read_bytes() == content
