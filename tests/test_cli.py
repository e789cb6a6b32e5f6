import json

import numpy as np
import pytest

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


@pytest.mark.parametrize("command, extra", [
    ("mesh", []),
    ("solve-laplace", []),
    ("solve-neumann", []),
    ("solve-plap", ["--p", "3"]),
])
def test_commands_build_the_mesh_dict_once(tmp_path, monkeypatch, command, extra):
    calls = []
    build = Mesh.to_json_dict
    monkeypatch.setattr(Mesh, "to_json_dict", lambda self: calls.append(1) or build(self))
    out = tmp_path / "run"
    assert main([command, "--config", laplace_config(tmp_path), "--out", str(out),
                 *extra]) == 0
    assert len(calls) == 1
    if command == "mesh":
        payload = json.loads((out / "mesh.json").read_text())
        digest = payload["mesh_hash"]
    else:
        payload = json.loads((out / "solution.json").read_text())
        digest = payload["solution"]["mesh_hash"]
    assert digest == Mesh.from_json_dict(payload["mesh"]).content_hash()


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


# -- verify and sweep --------------------------------------------------------------


def test_verify_experiment_writes_reports(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", {"levels": 3, "base_n": 4})
    out = tmp_path / "run"
    assert main(["verify", "ibp_smooth", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    csv_lines = (out / "report.csv").read_text().splitlines()
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
