"""Command-line front end: configuration plumbing around the library.

Each subcommand checks its config fields, builds and hashes the effective
configuration, and warns about every config key outside it.  A
signature gives keys and defaults: a domain's generator in
`geometry.DOMAINS` gives the domain's fields, and `verify`'s experiment
in `verify.EXPERIMENTS` gives its config keys.  Every artifact embeds the hash; reruns with the same
configuration are bit-identical.  A command claims its artifacts as soon
as the hash is known, before it solves anything: an existing artifact
with a different hash is never overwritten.  _write_artifact writes them.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import inspect
import json
import math
import operator
import os
import pathlib
import re
import sys

import numpy as np

from . import fem, verify
from .geometry import (
    DOMAINS,
    MeshError,
    PartitionError,
    _canonical_dumps,
    build_domain,
    mesh_size,
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
from .verify import substream_seed


class ConfigError(Exception):
    """Invalid configuration or command line; messages name the field."""


class ChecksFailed(Exception):
    """The artifacts are written, but a check or a sweep cell failed."""


# -- configuration plumbing --------------------------------------------------


def config_hash(effective):
    """sha256 over the canonical JSON form of the effective configuration."""
    return hashlib.sha256(_canonical_dumps(effective).encode("utf-8")).hexdigest()


def _reject_constant(name):
    raise ConfigError(f"config: non-finite number {name} is not allowed")


def _load_file_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path} ({exc.strerror})")
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"config: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    return data


def _int_field(cfg, key, default, minimum=None):
    raw = cfg.get(key, default)
    if isinstance(raw, bool) or not (
        isinstance(raw, int) or isinstance(raw, float) and raw.is_integer()
    ):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    val = int(raw)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    return val


def _float_field(cfg, key, default, above=None):
    raw = cfg.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    val = math.inf if abs(raw) > sys.float_info.max else float(raw)
    if not math.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {val}")
    if above is not None and val <= above:
        raise ConfigError(f"{key}: must be > {above}, got {val}")
    return val


def _list_field(cfg, key, default, read=_float_field, **bound):
    """Non-empty list, each entry checked by `read` (with `bound`)."""
    values = cfg.get(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{key}: expected a non-empty list")
    return [read({key: v}, key, None, **bound) for v in values]


def _typed_field(cfg, key, default):
    """cfg[key] read as the type of `default`: a number list, a float or an int."""
    if isinstance(default, tuple):
        return _list_field(cfg, key, None)
    if isinstance(default, float):
        return _float_field(cfg, key, None)
    return _int_field(cfg, key, None)


def _warn_unknown(extra, where):
    for key in sorted(extra):
        print(f"warning: ignoring unknown config key {where + key!r}", file=sys.stderr)


def _effective_hash(cfg, effective):
    """Hash of the effective configuration, after a warning for each config
    key (and each `data.*` key) that the effective configuration lacks."""
    _warn_unknown(set(cfg) - (set(effective) - {"command"}) - {"seed"}, "")
    if isinstance(effective.get("data"), dict):
        _warn_unknown(set(cfg.get("data", {})) - set(effective["data"]), "data.")
    return config_hash(effective)


def _domain_from_config(cfg):
    """(mesh, effective domain, refinement levels).  A domain's fields are
    its generator's keyword parameters, with their defaults."""
    dom = cfg.get("domain", {"kind": "unit_square", "n": 8})
    if not isinstance(dom, dict):
        raise ConfigError("domain: expected an object")
    if "kind" not in dom:
        raise ConfigError("domain.kind: required")
    kind = dom["kind"]
    if not isinstance(kind, str) or kind not in DOMAINS:
        raise ConfigError(f"domain: unknown domain kind {kind!r}")
    params = inspect.signature(DOMAINS[kind]).parameters
    unknown = set(dom) - {"kind"} - set(params)
    if unknown:
        raise ConfigError(f"domain: unknown field(s) {sorted(unknown)}")
    # Each number is checked by the type of its default.  Integer fields
    # are converted (8.0 -> 8); float fields keep the value as written,
    # so "k": 3 still hashes as 3.
    fields = {}
    for name, par in params.items():
        key, value = f"domain.{name}", dom.get(name, par.default)
        read = _typed_field({key: value}, key, par.default)
        fields[name] = value if isinstance(par.default, float) else read
    try:
        mesh = build_domain(kind, **fields)
    except MeshError as exc:
        raise ConfigError(f"domain: {exc}")
    levels = _int_field(cfg, "refine", 0, minimum=0)
    for _ in range(levels):
        mesh = refine(mesh)
    return mesh, {"kind": kind, **fields}, levels


def _partition_from_config(cfg, mesh):
    part_cfg = cfg.get("partition", {})
    if not isinstance(part_cfg, dict):
        raise ConfigError("partition: expected an object")
    regions = {}
    for name in ("dirichlet", "neumann"):
        tags = part_cfg.get(name, [])
        if isinstance(tags, str) or not isinstance(tags, (list, tuple)):
            raise ConfigError(f"partition.{name}: expected a list of boundary tags")
        regions[name] = [str(t) for t in tags]
    unknown = set(part_cfg) - set(regions)
    if unknown:
        raise ConfigError(f"partition: unknown field(s) {sorted(unknown)}")
    try:
        return partition_by_tags(mesh, **regions), regions
    except PartitionError as exc:
        raise ConfigError(f"partition: {exc}")


# -- restricted expressions for problem data --------------------------------

_EXPR_CONSTANTS = {"pi": math.pi, "e": math.e}
# numpy ufuncs, called with exactly `nin` positional arguments: a further
# one would be the ufunc's `out` array and overwrite it.
_EXPR_FUNCTIONS = {
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
_EXPR_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                   ast.UAdd, ast.USub)


def _check_expression(tree, text, field, variables):
    """ConfigError unless the parsed expression is arithmetic on int and
    float constants, the variables, pi and e, and calls of the whitelisted
    functions with their number of positional arguments."""
    values = set(_EXPR_CONSTANTS) | set(variables)

    def fail(reason):
        return ConfigError(f"{field}: {text!r} {reason}")

    callees = set()
    for node in ast.walk(tree.body):  # breadth first: a call before its callee
        if isinstance(node, ast.Name):
            if node.id not in values and node.id not in _EXPR_FUNCTIONS:
                allowed = ", ".join(sorted(values | set(_EXPR_FUNCTIONS)))
                raise ConfigError(f"{field}: unknown name {node.id!r} (allowed: {allowed})")
            if (node.id in _EXPR_FUNCTIONS) != (node in callees):
                what = "not a function" if node in callees else "a function"
                raise fail(f"does not evaluate to numbers ({node.id!r} is {what})")
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise fail(f"is not an arithmetic expression "
                           f"({type(node.func).__name__} called)")
            fn = _EXPR_FUNCTIONS.get(node.func.id)
            if fn is not None and (node.keywords or len(node.args) != fn.nin):
                raise fail(f"must call {node.func.id} with {fn.nin} positional "
                           f"argument(s)")
            callees.add(node.func)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, complex):
                raise fail("is not real at every point")
            if type(node.value) not in (int, float):
                raise fail(f"does not evaluate to numbers (constant {node.value!r})")
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if not isinstance(node.op, _EXPR_OPERATORS):
                raise fail(f"uses the operator {type(node.op).__name__}")
        elif not isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            raise fail(f"is not an arithmetic expression "
                       f"({type(node).__name__} is not allowed)")
    _check_integer_range(tree, fail)


# 2**_FLOAT_BITS is the smallest power of two past float range.
_FLOAT_BITS = 1024
_INT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod, ast.Pow: operator.pow}


def _check_integer_range(tree, fail):
    """Fold the integer subexpressions of constants, operands first, and
    refuse one past float range, a power before it is computed: Python's
    exact integer arithmetic would run 9**9**9 for hours."""
    too_large = fail("is not finite at every point (an integer past float range)")
    ints = {}
    for node in reversed(list(ast.walk(tree.body))):  # operands before operations
        if isinstance(node, ast.Constant) and type(node.value) is int:
            value = node.value
        elif isinstance(node, ast.UnaryOp) and node.operand in ints:
            value = -ints[node.operand] if isinstance(node.op, ast.USub) else ints[node.operand]
        elif isinstance(node, ast.BinOp) and node.left in ints and node.right in ints:
            a, b, op = ints[node.left], ints[node.right], type(node.op)
            if (op is ast.Div or (op is ast.Pow and b < 0)
                    or (op in (ast.FloorDiv, ast.Mod) and b == 0)):
                continue  # a float, or an ArithmeticError when evaluated
            if op is ast.Pow and abs(a) > 1 and (abs(a).bit_length() - 1) * b >= _FLOAT_BITS:
                raise too_large
            value = _INT_OPS[op](a, b)
        else:
            continue
        if abs(value).bit_length() > _FLOAT_BITS:
            raise too_large
        ints[node] = value


def compile_expression(text, field, variables=("x", "y", "r")):
    """Compile a config expression over a whitelisted namespace.

    Coordinates x, y (and the derived radius r; plus the outward normal
    nx, ny for flux data) are the only free variables.  The syntax tree
    is checked before anything is compiled (see _check_expression).
    """
    if not isinstance(text, str):
        raise ConfigError(f"{field}: expected an expression string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
        _check_expression(tree, text, field, variables)
        code = compile(tree, f"<{field}>", "eval")
    except (SyntaxError, ValueError, RecursionError) as exc:  # a NUL; a deep tree
        raise ConfigError(f"{field}: invalid expression ({getattr(exc, 'msg', exc)})")

    def evaluate(**coords):
        """Float values of the expression, one per point or one for all;
        a value that is not finite or not real is a ConfigError."""
        env = {**_EXPR_CONSTANTS, **_EXPR_FUNCTIONS, **coords}
        if "x" in coords and "r" not in coords:
            env["r"] = np.hypot(coords["x"], coords["y"])
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(eval(code, {"__builtins__": {}}, env))
                if values.dtype.kind == "c":  # (-1)**0.5 on Python numbers
                    raise ConfigError(f"{field}: {text!r} is not real at every point")
                values = values.astype(np.float64)
            finite = np.isfinite(values).all()
        except ArithmeticError:  # 1/0 or 10**400 on Python numbers
            finite = False
        except TypeError as exc:  # sin(10**400): no ufunc loop for such an int
            raise ConfigError(f"{field}: {text!r} does not evaluate to numbers ({exc})")
        if not finite:
            raise ConfigError(f"{field}: {text!r} is not finite at every point")
        return values

    return evaluate


def _scalar_from_expr(mesh, text, field):
    fn = compile_expression(text, field)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return fem.ScalarField(mesh, fn(x=x, y=y) * np.ones(mesh.num_vertices))


def _flux_from_expr(partition, region, text, field):
    fn = compile_expression(text, field, variables=("x", "y", "r", "nx", "ny"))
    return fem.flux_trace_from_function(
        partition, region, lambda x, y, nx, ny: fn(x=x, y=y, nx=nx, ny=ny))


# -- artifacts ---------------------------------------------------------------


# The head of every JSON artifact: keys are sorted, so config_hash comes first.
_JSON_HASH_HEAD = re.compile(r'\{"config_hash":"([0-9a-f]{64})"[,}]')
_JSON_HASH_HEAD_CHARS = len('{"config_hash":"') + 64 + 2


def _embedded_hash(path):
    """The configuration hash an artifact carries, or None.  A JSON
    artifact is read only as far as its head; any other file (a CSV, a
    hand-edited JSON, one written with json.dumps' spaced separators) is
    read whole."""
    try:
        with open(path) as fh:
            text = fh.read(_JSON_HASH_HEAD_CHARS)
            head = _JSON_HASH_HEAD.match(text)
            if head:
                return head.group(1)
            text += fh.read()
    except (OSError, UnicodeDecodeError):  # an undecodable file carries no hash
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


def _claim(out_dir, cfg_hash, *names):
    """Paths of this run's artifacts, claimed before anything is solved:
    an existing artifact that carries another configuration hash is
    refused, so a changed configuration runs nothing."""
    paths = [out_dir / name for name in names]
    for path in paths:
        old = _embedded_hash(path) if path.exists() else cfg_hash
        if old != cfg_hash:
            raise ConfigError(
                f"refusing to overwrite {path}: existing artifact carries "
                f"config hash {old!r}, this run has {cfg_hash!r}"
            )
    return paths


def _json_chunks(fields, mesh_pieces=None):
    """_canonical_dumps(fields) as a list of ASCII bytes pieces, plus
    mesh_pieces, a mesh's Mesh.json_pieces(), under "mesh": the mesh is
    not encoded again, and no piece is joined into a copy of the whole."""
    texts = {key: [_canonical_dumps(value).encode()] for key, value in fields.items()}
    if mesh_pieces is not None:
        texts["mesh"] = mesh_pieces
    chunks = [b"{"]
    for i, key in enumerate(sorted(texts)):
        chunks.append(f"{',' if i else ''}{_canonical_dumps(key)}:".encode())
        chunks += texts[key]
    return chunks + [b"}"]


def _write_artifact(path, chunks):
    """Write a claimed artifact from its bytes pieces, in binary mode (no
    locale encoding, no newline translation); an OSError (a dangling
    symlink, a full disk) is a ConfigError naming the path."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({exc.strerror or exc})")
    print(f"wrote {path}")


def _styled(text, ok, stream):
    if os.environ.get("NO_COLOR") or not stream.isatty():
        return text
    return f"\x1b[{'32' if ok else '31'}m{text}\x1b[0m"


# -- subcommands ---------------------------------------------------------------


def _cmd_mesh(args, cfg, out_dir):
    mesh, dom, levels = _domain_from_config(cfg)
    h = _effective_hash(cfg, {"command": "mesh", "domain": dom, "refine": levels})
    path, = _claim(out_dir, h, "mesh.json")
    mesh_pieces = mesh.json_pieces()
    payload = {"mesh_hash": mesh.content_hash(), "config_hash": h}
    _write_artifact(path, _json_chunks(payload, mesh_pieces))
    print(
        f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
        f"{mesh.num_boundary_edges} boundary edges, h={mesh_size(mesh):.6g}"
    )


def _data_from_config(cfg):
    data = cfg.get("data", {})
    if not isinstance(data, dict):
        raise ConfigError("data: expected an object")
    return data


def _solve_config(cfg):
    """Mesh, partition and data of a solve with a non-empty Dirichlet region."""
    mesh, dom, levels = _domain_from_config(cfg)
    partition, part_cfg = _partition_from_config(cfg, mesh)
    if len(partition.region_edges("dirichlet")) == 0:
        raise ConfigError("partition.dirichlet: this command needs a non-empty "
                          "Dirichlet region")
    return mesh, dom, levels, partition, part_cfg, _data_from_config(cfg)


def _cmd_solve_laplace(args, cfg, out_dir):
    mesh, dom, levels, partition, part_cfg, data = _solve_config(cfg)
    g = _scalar_from_expr(mesh, data.get("g", "0"), "data.g")
    f = _scalar_from_expr(mesh, data.get("f", "0"), "data.f")
    theta = None
    if "theta" in data:
        if len(partition.region_edges("neumann")) == 0:
            raise ConfigError("data.theta: given but the Neumann region is empty")
        theta = _flux_from_expr(partition, "neumann", data["theta"], "data.theta")
    rtol = _float_field(cfg, "rtol", 1e-12, above=0.0)

    effective = {
        "command": "solve-laplace", "domain": dom, "refine": levels,
        "partition": part_cfg,
        "data": {"f": data.get("f", "0"), "g": data.get("g", "0"),
                 "theta": data.get("theta")},
        "rtol": rtol,
    }
    h = _effective_hash(cfg, effective)
    path, = _claim(out_dir, h, "solution.json")
    u, info = solve_mixed(MixedProblem(partition, g, f, theta), rtol=rtol)
    mesh_pieces = mesh.json_pieces()
    payload = {
        "solution": fem.field_json_dict(u),
        "info": {"iterations": int(info["iterations"]),
                 "residual": float(info["residual"])},
        "config_hash": h,
    }
    _write_artifact(path, _json_chunks(payload, mesh_pieces))
    print(f"solved: {info['iterations']} iterations, "
          f"weak residual {info['residual']:.3e}")


def _cmd_solve_neumann(args, cfg, out_dir):
    mesh, dom, levels = _domain_from_config(cfg)
    # Every boundary edge is Neumann: the command reads no partition.
    partition = partition_by_tags(mesh, neumann=set(mesh.boundary_tags))
    data = _data_from_config(cfg)
    if args.gauge is not None:
        cfg["gauge"] = args.gauge
    gauge = cfg.get("gauge", "mean")
    if gauge not in ("mean", "vertex"):
        raise ConfigError(f"gauge: expected 'mean' or 'vertex', got {gauge!r}")
    g = _scalar_from_expr(mesh, data.get("g", "0"), "data.g")
    theta = _flux_from_expr(partition, "boundary", data.get("theta", "0"), "data.theta")
    rtol = _float_field(cfg, "rtol", 1e-12, above=0.0)

    effective = {
        "command": "solve-neumann", "domain": dom, "refine": levels,
        "data": {"g": data.get("g", "0"), "theta": data.get("theta", "0")},
        "gauge": gauge, "rtol": rtol,
    }
    h = _effective_hash(cfg, effective)
    path, = _claim(out_dir, h, "solution.json")
    u, info = solve_neumann(NeumannProblem(partition, g, theta), gauge=gauge, rtol=rtol)
    mesh_pieces = mesh.json_pieces()
    payload = {
        "solution": fem.field_json_dict(u),
        "info": {"iterations": int(info["iterations"]),
                 "residual": float(info["residual"]),
                 "defect": float(info["defect"]),
                 "gauge": gauge},
        "config_hash": h,
    }
    _write_artifact(path, _json_chunks(payload, mesh_pieces))
    print(f"solved: {info['iterations']} iterations, weak residual "
          f"{info['residual']:.3e}, compatibility defect {info['defect']:.3e}")


def _cmd_solve_plap(args, cfg, out_dir):
    for flag in ("p", "tol"):
        if getattr(args, flag) is not None:
            cfg[flag] = getattr(args, flag)
    if args.certificate:
        cfg["certificate"] = True
    mesh, dom, levels, partition, part_cfg, data = _solve_config(cfg)
    if "p" not in cfg:
        raise ConfigError("p: required for solve-plap")
    p = _float_field(cfg, "p", None, above=1.0)
    tol = _float_field(cfg, "tol", 1e-8, above=0.0)
    want_cert = cfg.get("certificate", False)
    if not isinstance(want_cert, bool):
        raise ConfigError(f"certificate: expected true or false, got {want_cert!r}")
    f = _scalar_from_expr(mesh, data.get("f", "0"), "data.f")
    constraint = frozenset(int(v) for v in partition.region_vertices("dirichlet"))
    seed = cfg.get("seed", 0)

    effective = {
        "command": "solve-plap", "domain": dom, "refine": levels,
        "partition": part_cfg, "data": {"f": data.get("f", "0")},
        "p": p, "tol": tol, "certificate": want_cert,
    }
    if want_cert:  # the seed draws only the certificate's directions
        effective["seed"] = seed
    h = _effective_hash(cfg, effective)
    path, = _claim(out_dir, h, "solution.json")
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
    mesh_pieces = mesh.json_pieces()
    payload = {"solution": fem.field_json_dict(u), "info": info, "config_hash": h}
    _write_artifact(path, _json_chunks(payload, mesh_pieces))
    line = (f"solved: p={p:g}, energy {report.energy:.12g}, "
            f"stationarity {report.stationarity:.3e}")
    if want_cert:
        ok = info["certificate"]["passed"]
        line += f", certificate {'passed' if ok else 'FAILED'}"
    print(line)
    if want_cert and not info["certificate"]["passed"]:
        raise ChecksFailed("the minimality certificate failed")


def _cmd_verify(args, cfg, out_dir):
    run = verify.EXPERIMENTS[args.experiment]
    params = inspect.signature(run).parameters
    _warn_unknown(set(cfg) - set(params) - {"seed"}, "")
    kwargs = {key: _typed_field(cfg, key, par.default)
              for key, par in params.items() if key in cfg}
    config = {key: cfg[key] for key in params if key in cfg}
    h = config_hash({"command": "verify", "experiment": args.experiment, "config": config})
    csv_path, json_path = _claim(out_dir, h, "report.csv", "summary.json")
    try:
        report = run(**kwargs)
    except verify.ParameterError as exc:
        raise ConfigError(str(exc))
    _write_artifact(csv_path, [verify.report_csv(report, h).encode()])
    _write_artifact(json_path, _json_chunks(verify.report_summary(report, h)))
    for name, ok in report.passed.items():
        print(f"[{_styled('PASS' if ok else 'FAIL', ok, sys.stdout)}] {name}")
    failed = [name for name, ok in report.passed.items() if not ok]
    if failed:
        raise ChecksFailed(f"failed checks: {', '.join(failed)}")


def _cmd_sweep(args, cfg, out_dir):
    mesh, dom, pre_levels, _, part_cfg, data = _solve_config(cfg)
    f_expr = data.get("f", "0")
    p_values = _list_field(cfg, "p_values", [2.0, 3.0], above=1.0)
    level_list = _list_field(cfg, "levels", [0, 1], _int_field, minimum=0)
    tol = _float_field(cfg, "tol", 1e-8, above=0.0)
    seed = cfg.get("seed", 0)

    effective = {
        "command": "sweep", "domain": dom, "refine": pre_levels,
        "partition": part_cfg, "data": {"f": f_expr},
        "p_values": p_values, "levels": level_list, "tol": tol, "seed": seed,
    }
    h = _effective_hash(cfg, effective)
    path, = _claim(out_dir, h, "sweep.csv")

    # Each level's mesh, constraint set and source, shared by every exponent.
    cells = {}
    for lev in range(max(level_list) + 1):
        if lev > 0:
            mesh = refine(mesh)
        if lev in level_list:
            part = partition_by_tags(mesh, **part_cfg)
            constraint = frozenset(int(v) for v in part.region_vertices("dirichlet"))
            cells[lev] = (mesh, constraint, _scalar_from_expr(mesh, f_expr, "data.f"))

    rows = []
    failures = 0
    for p in p_values:
        prev_u = None  # the previous cell's minimizer, if it succeeded
        for lev in level_list:
            mesh, constraint, f = cells[lev]
            # Nested iteration: a cell on the child of the previous cell's
            # mesh starts from that cell's prolonged minimizer.
            coarse = prev_u if prev_u is not None and mesh.parent is prev_u.mesh else None
            prev_u = None
            try:
                u, rep = solve_p_laplace(PlapProblem(mesh, constraint, f, p=p, tol=tol),
                                         coarse=coarse)
                energy, stat, status = rep.energy, rep.stationarity, "ok"
                alpha, fit = verify.holder_exponent(
                    mesh, u, n_pairs=1200,
                    seed=substream_seed(seed, f"sweep:holder:p={p!r}:level={lev}"),
                )
                prev_u = u
            except (PLaplaceError, SolverError) as exc:
                energy, stat, status = float("nan"), float("nan"), type(exc).__name__
                alpha, fit = float("nan"), float("nan")
                failures += 1
            rows.append([p, lev, mesh_size(mesh), mesh.num_vertices, energy, stat,
                         alpha, fit, status])

    header = "p,level,h,n_vertices,energy,stationarity,alpha,fit_r2,status".split(",")
    _write_artifact(path, [verify.csv_text(h, header, rows).encode()])
    print(f"sweep: {len(p_values) * len(level_list)} cells, {failures} failed")
    if failures:
        raise ChecksFailed(f"{failures} sweep cells failed")


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
    p_ver.add_argument("experiment", choices=verify.EXPERIMENTS)
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
            fh.write(_canonical_dumps(record))
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
        args.func(args, cfg, out_dir)
        (out_dir / "error.json").unlink(missing_ok=True)  # from an earlier failed run
        return 0
    except ConfigError as exc:
        _emit_error(out_dir, exc, 2)
        return 2
    except (MeshError, PartitionError, fem.FieldError, SolverError,
            CompatibilityError, PLaplaceError, ValueError, ChecksFailed) as exc:
        # A library ValueError that no configuration check caught is a
        # failed run, not a configuration error.
        _emit_error(out_dir, exc, 1)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
