"""Command-line front end.

Subcommands build meshes, run the linear and nonlinear solvers, run the
verification experiments, and sweep the nonlinear solver over exponent/
refinement grids.  Every artifact embeds a sha256 hash of the effective
configuration; reruns with the same configuration are bit-identical and
an existing artifact with a different hash is never overwritten.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import sys

import numpy as np

from . import fem, verify
from .geometry import (
    DomainSpec,
    MeshError,
    PartitionError,
    build_domain,
    partition_by_tags,
    refine,
)
from .laplace import (
    CompatibilityError,
    MixedProblem,
    NeumannProblem,
    SolverError,
    solve_mixed,
    solve_neumann,
)
from .plaplace import PLaplaceError, PlapProblem, minimality_certificate, solve_p_laplace


class ConfigError(Exception):
    """Invalid configuration or command line; messages name the field."""


# -- configuration plumbing --------------------------------------------------


def config_hash(effective):
    """sha256 over the canonical JSON form of the effective configuration."""
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def substream_seed(seed, label):
    """Derived 64-bit seed for a named random substream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _reject_constant(name):
    raise ConfigError(f"config: non-finite number {name} is not allowed")


def _load_file_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    return data


def _int_field(cfg, key, default, minimum=None, maximum=None):
    raw = cfg.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw != int(raw):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    val = int(raw)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    if maximum is not None and val >= maximum:
        raise ConfigError(f"{key}: must be < {maximum}, got {val}")
    return val


def _float_field(cfg, key, default, minimum=None, strict=False):
    raw = cfg.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    val = float(raw)
    if not math.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {val}")
    if minimum is not None and (val <= minimum if strict else val < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{key}: must be {op} {minimum}, got {val}")
    return val


def _p_values_field(cfg, default):
    """Non-empty list of exponents, each a finite number > 1."""
    p_values = cfg.get("p_values", default)
    if not isinstance(p_values, (list, tuple)) or not p_values:
        raise ConfigError("p_values: expected a non-empty list")
    return [_float_field({"p_values": p}, "p_values", None, minimum=1.0, strict=True)
            for p in p_values]


def _warn_unknown(extra, where):
    for key in sorted(extra):
        print(f"warning: ignoring unknown config key {where}{key!r}", file=sys.stderr)


_DOMAIN_FIELDS = ("kind", "n", "r_in", "r_out", "n_radial", "n_angular", "k", "seed")


def _domain_from_config(cfg):
    dom = cfg.get("domain", {"kind": "unit_square", "n": 8})
    if not isinstance(dom, dict):
        raise ConfigError("domain: expected an object")
    unknown = set(dom) - set(_DOMAIN_FIELDS)
    if unknown:
        raise ConfigError(f"domain: unknown field(s) {sorted(unknown)}")
    if "kind" not in dom:
        raise ConfigError("domain.kind: required")
    try:
        spec = DomainSpec(**dom)
        mesh = build_domain(spec)
    except MeshError as exc:
        raise ConfigError(f"domain: {exc}")
    levels = _int_field(cfg, "refine", 0, minimum=0)
    for _ in range(levels):
        mesh = refine(mesh)
    effective_dom = {f: getattr(spec, f) for f in _DOMAIN_FIELDS}
    return mesh, effective_dom, levels


def _partition_from_config(cfg, mesh, default=None):
    part_cfg = cfg.get("partition", default if default is not None else {})
    if not isinstance(part_cfg, dict):
        raise ConfigError("partition: expected an object")
    unknown = set(part_cfg) - {"dirichlet", "neumann"}
    if unknown:
        raise ConfigError(f"partition: unknown field(s) {sorted(unknown)}")
    regions = {}
    for name in ("dirichlet", "neumann"):
        tags = part_cfg.get(name, [])
        if isinstance(tags, str) or not isinstance(tags, (list, tuple)):
            raise ConfigError(f"partition.{name}: expected a list of boundary tags")
        regions[name] = tuple(str(t) for t in tags)
    try:
        partition = partition_by_tags(
            mesh, dirichlet=regions["dirichlet"], neumann=regions["neumann"]
        )
    except PartitionError as exc:
        raise ConfigError(f"partition: {exc}")
    return partition, {k: list(v) for k, v in regions.items()}


# -- restricted expressions for problem data --------------------------------

_EXPR_NAMES = {
    "pi": math.pi,
    "e": math.e,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "hypot": np.hypot,
    "atan2": np.arctan2,
    "minimum": np.minimum,
    "maximum": np.maximum,
}


def compile_expression(text, field, variables=("x", "y", "r")):
    """Compile a config expression over a whitelisted namespace.

    Coordinates x, y (and the derived radius r; plus the outward normal
    nx, ny for flux data) are the only free variables.
    """
    if not isinstance(text, str):
        raise ConfigError(f"{field}: expected an expression string, got {text!r}")
    try:
        code = compile(text, f"<{field}>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"{field}: invalid expression ({exc.msg})")
    allowed = set(_EXPR_NAMES) | set(variables)
    for name in code.co_names:
        if name not in allowed:
            raise ConfigError(
                f"{field}: unknown name {name!r} (allowed: "
                f"{', '.join(sorted(allowed))})"
            )

    def evaluate(**coords):
        env = dict(_EXPR_NAMES)
        env.update(coords)
        if "x" in coords and "r" not in coords:
            env["r"] = np.hypot(coords["x"], coords["y"])
        return eval(code, {"__builtins__": {}}, env)

    return evaluate


def _scalar_from_expr(mesh, text, field):
    fn = compile_expression(text, field)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    vals = np.asarray(fn(x=x, y=y), dtype=np.float64) * np.ones(mesh.num_vertices)
    return fem.ScalarField(mesh, vals)


def _flux_from_expr(partition, region, text, field):
    fn = compile_expression(text, field, variables=("x", "y", "r", "nx", "ny"))
    return fem.flux_trace_from_function(
        partition,
        region,
        lambda x, y, nx, ny: np.asarray(fn(x=x, y=y, nx=nx, ny=ny), dtype=np.float64),
    )


# -- artifacts ---------------------------------------------------------------


def _embedded_hash(path):
    try:
        text = path.read_text()
    except OSError:
        return None
    head = text.lstrip()
    if head.startswith("#"):
        first = head.splitlines()[0]
        if first.startswith("# config_hash="):
            return first.split("=", 1)[1].strip()
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    if isinstance(data, dict):
        return data.get("config_hash")
    return None


def _guard_overwrite(path, new_hash):
    if not path.exists():
        return
    old = _embedded_hash(path)
    if old != new_hash:
        raise ConfigError(
            f"refusing to overwrite {path}: existing artifact carries "
            f"config hash {old!r}, this run has {new_hash!r}"
        )


def _write_json_artifact(path, payload, cfg_hash):
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    _guard_overwrite(path, cfg_hash)
    # json.dumps runs the C encoder; json.dump streams through the pure-
    # Python one.  The bytes are the same.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    print(f"wrote {path}")


def _hashed_mesh_dict(mesh):
    """mesh.to_json_dict(), also hashed as the mesh's content hash, so a
    command that writes the mesh builds its dict once."""
    mesh_dict = mesh.to_json_dict()
    mesh._keep_content_hash(mesh_dict)
    return mesh_dict


def _mesh_h(mesh):
    """Longest triangle edge (the mesh size h)."""
    p = mesh.vertices[mesh.triangles]
    sides = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.max(np.hypot(sides[:, 0], sides[:, 1])))


def _styled(text, ok, stream):
    if os.environ.get("NO_COLOR") or not stream.isatty():
        return text
    return f"\x1b[{'32' if ok else '31'}m{text}\x1b[0m"


def _print_checks(report):
    for name, ok in report.passed.items():
        label = _styled("PASS" if ok else "FAIL", ok, sys.stdout)
        print(f"[{label}] {name}")


# -- subcommands ---------------------------------------------------------------


def _cmd_mesh(args, cfg, out_dir):
    mesh, dom, levels = _domain_from_config(cfg)
    _warn_unknown(set(cfg) - {"domain", "refine", "seed"}, "")
    effective = {"command": "mesh", "domain": dom, "refine": levels}
    h = config_hash(effective)
    mesh_dict = _hashed_mesh_dict(mesh)
    payload = {"mesh": mesh_dict, "mesh_hash": mesh.content_hash()}
    _write_json_artifact(out_dir / "mesh.json", payload, h)
    print(
        f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
        f"{mesh.num_boundary_edges} boundary edges, h={_mesh_h(mesh):.6g}"
    )
    return 0


def _solve_config(args, cfg, needs_dirichlet):
    mesh, dom, levels = _domain_from_config(cfg)
    default_part = None
    if not needs_dirichlet:
        default_part = {"neumann": sorted(set(mesh.boundary_tags))}
    partition, part_cfg = _partition_from_config(cfg, mesh, default=default_part)
    data = cfg.get("data", {})
    if not isinstance(data, dict):
        raise ConfigError("data: expected an object")
    return mesh, dom, levels, partition, part_cfg, data


def _cmd_solve_laplace(args, cfg, out_dir):
    mesh, dom, levels, partition, part_cfg, data = _solve_config(args, cfg, True)
    _warn_unknown(set(cfg) - {"domain", "refine", "partition", "data", "rtol",
                              "seed"}, "")
    _warn_unknown(set(data) - {"f", "g", "theta"}, "data.")
    g = _scalar_from_expr(mesh, data.get("g", "0"), "data.g")
    f = _scalar_from_expr(mesh, data.get("f", "0"), "data.f")
    theta = None
    if "theta" in data:
        if len(partition.region_edges("neumann")) == 0:
            raise ConfigError("data.theta: given but the Neumann region is empty")
        theta = _flux_from_expr(partition, "neumann", data["theta"], "data.theta")
    rtol = _float_field(cfg, "rtol", 1e-12, minimum=0.0, strict=True)

    effective = {
        "command": "solve-laplace", "domain": dom, "refine": levels,
        "partition": part_cfg,
        "data": {"f": data.get("f", "0"), "g": data.get("g", "0"),
                 "theta": data.get("theta")},
        "rtol": rtol,
    }
    h = config_hash(effective)
    try:
        problem = MixedProblem(partition, g, f, theta)
    except PartitionError as exc:
        raise ConfigError(f"partition: {exc}")
    u, info = solve_mixed(problem, rtol=rtol)
    mesh_dict = _hashed_mesh_dict(mesh)
    payload = {
        "solution": fem.field_json_dict(u),
        "mesh": mesh_dict,
        "info": {"iterations": int(info["iterations"]),
                 "residual": float(info["residual"])},
    }
    _write_json_artifact(out_dir / "solution.json", payload, h)
    print(f"solved: {info['iterations']} iterations, "
          f"weak residual {info['residual']:.3e}")
    return 0


def _cmd_solve_neumann(args, cfg, out_dir):
    mesh, dom, levels, partition, part_cfg, data = _solve_config(args, cfg, False)
    if args.gauge is not None:
        cfg["gauge"] = args.gauge
    _warn_unknown(set(cfg) - {"domain", "refine", "partition", "data", "gauge",
                              "rtol", "seed"}, "")
    _warn_unknown(set(data) - {"g", "theta"}, "data.")
    gauge = cfg.get("gauge", "mean")
    if gauge not in ("mean", "vertex"):
        raise ConfigError(f"gauge: expected 'mean' or 'vertex', got {gauge!r}")
    g = _scalar_from_expr(mesh, data.get("g", "0"), "data.g")
    theta = _flux_from_expr(partition, "boundary", data.get("theta", "0"), "data.theta")
    rtol = _float_field(cfg, "rtol", 1e-12, minimum=0.0, strict=True)

    effective = {
        "command": "solve-neumann", "domain": dom, "refine": levels,
        "partition": part_cfg,
        "data": {"g": data.get("g", "0"), "theta": data.get("theta", "0")},
        "gauge": gauge, "rtol": rtol,
    }
    h = config_hash(effective)
    u, info = solve_neumann(NeumannProblem(partition, g, theta), gauge=gauge, rtol=rtol)
    mesh_dict = _hashed_mesh_dict(mesh)
    payload = {
        "solution": fem.field_json_dict(u),
        "mesh": mesh_dict,
        "info": {"iterations": int(info["iterations"]),
                 "residual": float(info["residual"]),
                 "defect": float(info["defect"]),
                 "gauge": gauge},
    }
    _write_json_artifact(out_dir / "solution.json", payload, h)
    print(f"solved: {info['iterations']} iterations, weak residual "
          f"{info['residual']:.3e}, compatibility defect {info['defect']:.3e}")
    return 0


def _cmd_solve_plap(args, cfg, out_dir):
    for flag in ("p", "tol"):
        if getattr(args, flag) is not None:
            cfg[flag] = getattr(args, flag)
    mesh, dom, levels, partition, part_cfg, data = _solve_config(args, cfg, True)
    _warn_unknown(set(cfg) - {"domain", "refine", "partition", "data", "p", "tol",
                              "certificate", "seed"}, "")
    _warn_unknown(set(data) - {"f"}, "data.")
    if "p" not in cfg:
        raise ConfigError("p: required for solve-plap")
    p = _float_field(cfg, "p", None, minimum=1.0, strict=True)
    tol = _float_field(cfg, "tol", 1e-8, minimum=0.0, strict=True)
    want_cert = bool(cfg.get("certificate", False) or args.certificate)
    f = _scalar_from_expr(mesh, data.get("f", "0"), "data.f")
    constraint = frozenset(int(v) for v in partition.region_vertices("dirichlet"))
    if not constraint:
        raise ConfigError("partition.dirichlet: solve-plap needs a non-empty "
                          "constraint region")
    seed = cfg.get("seed", 0)

    effective = {
        "command": "solve-plap", "domain": dom, "refine": levels,
        "partition": part_cfg, "data": {"f": data.get("f", "0")},
        "p": p, "tol": tol, "certificate": want_cert, "seed": seed,
    }
    h = config_hash(effective)
    u, report = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p, tol=tol))
    info = {
        "energy": float(report.energy),
        "stationarity": float(report.stationarity),
        "stages": report.iterations,
        "p": p,
    }
    if want_cert:
        cert_report = minimality_certificate(
            u, p, constraint, seed=substream_seed(seed, "plap:certificate")
        )
        info["certificate"] = cert_report.certificate
    mesh_dict = _hashed_mesh_dict(mesh)
    payload = {"solution": fem.field_json_dict(u), "mesh": mesh_dict,
               "info": info}
    _write_json_artifact(out_dir / "solution.json", payload, h)
    line = (f"solved: p={p:g}, energy {report.energy:.12g}, "
            f"stationarity {report.stationarity:.3e}")
    if want_cert:
        ok = info["certificate"]["passed"]
        line += f", certificate {'passed' if ok else 'FAILED'}"
    print(line)
    return 0 if (not want_cert or info["certificate"]["passed"]) else 1


_EXPERIMENTS = (
    "manufactured_dirichlet",
    "neumann_harmonic",
    "plap_affine",
    "ibp_smooth",
    "counterexample_punctured",
    "poincare_2",
    "holder_cusp",
)


def _poincare_report(levels):
    from .geometry import build_rectangle, build_unit_square

    sq = build_unit_square(8)
    rc = build_rectangle(2.0, 1.0, 16, 8)
    meas = {"h": [], "c_square": [], "c_rect": []}
    rows = list(range(levels))
    for lev in rows:
        if lev > 0:
            sq, rc = refine(sq), refine(rc)
        meas["h"].append(_mesh_h(sq))
        meas["c_square"].append(verify.poincare_constant_2(sq))
        meas["c_rect"].append(verify.poincare_constant_2(rc))
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
    return verify.Report(
        experiment="poincare_2",
        params={"levels": levels},
        levels=rows,
        measurements=meas,
        fitted=fitted,
        passed=passed,
        tolerances={"constant": 0.05},
    )


def _holder_report(cfg):
    from .geometry import build_cusp

    k = _float_field(cfg, "k", 3.0, minimum=1.0)
    n = _int_field(cfg, "n", 6, minimum=2)
    n_pairs = _int_field(cfg, "n_pairs", 4000, minimum=10)
    seed = cfg.get("seed", 0)
    p_values = _p_values_field(cfg, [2.0, 8.0])

    mesh = build_cusp(k, n)
    partition = partition_by_tags(mesh, dirichlet=("right",),
                                  neumann=("lower", "upper"))
    constraint = frozenset(int(v) for v in partition.region_vertices("dirichlet"))
    f = fem.ScalarField.from_function(mesh, lambda x, y: y)

    rows, meas = [], {"h": [], "p": [], "alpha": [], "fit_quality": []}
    for idx, p in enumerate(p_values):
        u, _ = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p, tol=1e-8))
        alpha, r2 = verify.holder_exponent(
            mesh, u, n_pairs=n_pairs, seed=substream_seed(seed, "holder:pairs")
        )
        rows.append(idx)
        meas["h"].append(_mesh_h(mesh))
        meas["p"].append(p)
        meas["alpha"].append(alpha)
        meas["fit_quality"].append(r2)
    passed = {
        "alpha_positive": all(a > 0.0 for a in meas["alpha"]),
        "fit_quality_at_least_0.8": all(q >= 0.8 for q in meas["fit_quality"]),
    }
    return verify.Report(
        experiment="holder_cusp",
        params={"k": k, "n": n, "p_values": p_values,
                "n_pairs": n_pairs, "seed": seed},
        levels=rows,
        measurements=meas,
        fitted={"alpha_min": min(meas["alpha"]),
                "fit_quality_min": min(meas["fit_quality"])},
        passed=passed,
        tolerances={"alpha": "> 0", "fit_quality": ">= 0.8"},
    )


def _cmd_verify(args, cfg, out_dir):
    name = args.experiment
    _warn_unknown(set(cfg) - {"levels", "base_n", "p", "p_values", "k", "n",
                              "n_pairs", "r_in_schedule", "seed"}, "")
    effective = {"command": "verify", "experiment": name,
                 "config": {k: cfg[k] for k in sorted(cfg)}}
    h = config_hash(effective)

    if name in ("manufactured_dirichlet", "neumann_harmonic", "plap_affine",
                "ibp_smooth"):
        levels = _int_field(cfg, "levels", 4, minimum=3)
        base_n = _int_field(cfg, "base_n", 8, minimum=2)
        p = _float_field(cfg, "p", 4.0, minimum=1.0, strict=True)
        report = verify.convergence_study(name, levels=levels, base_n=base_n, p=p)
    elif name == "counterexample_punctured":
        levels = _int_field(cfg, "levels", 3, minimum=1)
        p = _float_field(cfg, "p", 3.0, minimum=0.0)
        schedule = cfg.get("r_in_schedule", [1e-2, 1e-3])
        if not isinstance(schedule, (list, tuple)) or not schedule:
            raise ConfigError("r_in_schedule: expected a non-empty list of radii")
        try:
            report = verify.counterexample_punctured(
                p, r_in_schedule=tuple(float(r) for r in schedule), levels=levels
            )
        except ValueError as exc:
            raise ConfigError(f"p: {exc}")
    elif name == "poincare_2":
        report = _poincare_report(_int_field(cfg, "levels", 3, minimum=2))
    elif name == "holder_cusp":
        report = _holder_report(cfg)
    else:  # pragma: no cover - argparse choices guard this
        raise ConfigError(f"experiment: unknown experiment {name!r}")

    csv_path = out_dir / "report.csv"
    json_path = out_dir / "summary.json"
    _guard_overwrite(csv_path, h)
    _guard_overwrite(json_path, h)
    verify.write_report_csv(report, csv_path, config_hash=h)
    verify.write_report_json(report, json_path, config_hash=h)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    _print_checks(report)
    return 0 if report.all_passed else 1


def _cmd_sweep(args, cfg, out_dir):
    mesh0, dom, pre_levels = _domain_from_config(cfg)
    partition0, part_cfg = _partition_from_config(cfg, mesh0)
    data = cfg.get("data", {})
    if not isinstance(data, dict):
        raise ConfigError("data: expected an object")
    _warn_unknown(set(cfg) - {"domain", "refine", "partition", "data", "p_values",
                              "levels", "tol", "seed"}, "")
    _warn_unknown(set(data) - {"f"}, "data.")
    f_expr = data.get("f", "0")
    p_values = _p_values_field(cfg, [2.0, 3.0])
    level_list = cfg.get("levels", [0, 1])
    if not isinstance(level_list, (list, tuple)) or not level_list:
        raise ConfigError("levels: expected a non-empty list of refinement counts")
    level_list = [
        _int_field({"levels": lv}, "levels", None, minimum=0) for lv in level_list
    ]
    tol = _float_field(cfg, "tol", 1e-8, minimum=0.0, strict=True)
    seed = cfg.get("seed", 0)
    if not part_cfg["dirichlet"]:
        raise ConfigError("partition.dirichlet: sweep needs a non-empty "
                          "constraint region")

    effective = {
        "command": "sweep", "domain": dom, "refine": pre_levels,
        "partition": part_cfg, "data": {"f": f_expr},
        "p_values": p_values, "levels": level_list, "tol": tol, "seed": seed,
    }
    h = config_hash(effective)

    meshes = {0: mesh0}
    for lev in range(1, max(level_list) + 1):
        meshes[lev] = refine(meshes[lev - 1])

    lines = [f"# config_hash={h}",
             "p,level,h,n_vertices,energy,stationarity,alpha,fit_r2,status"]
    failures = 0
    for p in p_values:
        for lev in level_list:
            mesh = meshes[lev]
            part, _ = _partition_from_config(
                {"partition": {"dirichlet": part_cfg["dirichlet"],
                               "neumann": part_cfg["neumann"]}}, mesh)
            f = _scalar_from_expr(mesh, f_expr, "data.f")
            constraint = frozenset(int(v) for v in part.region_vertices("dirichlet"))
            try:
                u, rep = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p, tol=tol))
                energy, stat, status = rep.energy, rep.stationarity, "ok"
                alpha, fit = verify.holder_exponent(
                    mesh, u, n_pairs=1200,
                    seed=substream_seed(seed, f"sweep:holder:p={p!r}:level={lev}"),
                )
            except (PLaplaceError, SolverError) as exc:
                energy, stat, status = float("nan"), float("nan"), type(exc).__name__
                alpha, fit = float("nan"), float("nan")
                failures += 1
            lines.append(",".join([
                repr(float(p)), str(int(lev)), repr(_mesh_h(mesh)),
                str(int(mesh.num_vertices)), repr(float(energy)),
                repr(float(stat)), repr(float(alpha)), repr(float(fit)), status,
            ]))

    csv_path = out_dir / "sweep.csv"
    _guard_overwrite(csv_path, h)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    print(f"sweep: {len(p_values) * len(level_list)} cells, {failures} failed")
    return 0 if failures == 0 else 1


# -- entry point ---------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="singfem",
        description="Piecewise-linear finite elements on planar domains with "
                    "singular boundary points.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--seed", type=int, default=None,
                        help="base seed for all random substreams")

    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", parents=[common],
                            help="generate a triangulation artifact")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_lap = sub.add_parser("solve-laplace", parents=[common],
                           help="mixed Dirichlet/Neumann Poisson solve")
    p_lap.set_defaults(func=_cmd_solve_laplace)

    p_neu = sub.add_parser("solve-neumann", parents=[common],
                           help="pure-Neumann Poisson solve")
    p_neu.add_argument("--gauge", choices=("mean", "vertex"), default=None)
    p_neu.set_defaults(func=_cmd_solve_neumann)

    p_plap = sub.add_parser("solve-plap", parents=[common],
                            help="p-Dirichlet energy minimization")
    p_plap.add_argument("--p", type=float, default=None, help="exponent p > 1")
    p_plap.add_argument("--tol", type=float, default=None,
                        help="stationarity tolerance")
    p_plap.add_argument("--certificate", action="store_true",
                        help="also run the perturbation certificate")
    p_plap.set_defaults(func=_cmd_solve_plap)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a named verification experiment")
    p_ver.add_argument("experiment", choices=_EXPERIMENTS)
    p_ver.set_defaults(func=_cmd_verify)

    p_swp = sub.add_parser("sweep", parents=[common],
                           help="p/refinement grid of nonlinear solves")
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def _emit_error(out_dir, exc, code):
    print(f"error: {exc}", file=sys.stderr)
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    try:
        with open(out_dir / "error.json", "w") as fh:
            json.dump(record, fh, sort_keys=True)
    except OSError:
        pass


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = _load_file_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        seed = cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"seed: must be an integer in [0, 2^64), got {seed!r}")
        return int(args.func(args, cfg, out_dir))
    except ConfigError as exc:
        _emit_error(out_dir, exc, 2)
        return 2
    except (MeshError, PartitionError, fem.FieldError, SolverError,
            CompatibilityError, PLaplaceError, ValueError) as exc:
        # A library ValueError that no configuration check caught is a
        # failed run, not a configuration error.
        _emit_error(out_dir, exc, 1)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
