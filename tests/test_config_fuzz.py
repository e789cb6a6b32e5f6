"""Config fuzzer for the exit-code contract.

Whatever a config file holds, `main` returns 0, 1 or 2, writes error.json
on every nonzero exit and lets no exception escape.  A field of the wrong
JSON type, or a number out of range for a field that is read, is a usage
error (exit 2).  Valid draws stay small (n <= 8, at most one refinement,
a few levels), so no draw builds a large mesh.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from singfem import verify
from singfem.cli import main
from singfem.geometry import DomainSpec

FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Values of the wrong JSON type for an integer, a number and a list field.
WRONG_INT = ["8", None, True, [2], {}, 2.5, -0.5]
WRONG_FLOAT = ["0.5", None, False, [1.0], {}]
WRONG_LIST = ["x", None, True, 3.0, {}, [], [None], ["2"], [False]]

# domain field -> (valid values, values out of range where the field is read)
DOMAIN = {
    "n": ([2, 3, 8], [0, -2]),
    "r_in": ([0.1, 0.25], [0.0, -0.1]),
    "r_out": ([1, 2.0], [0.05]),
    "n_radial": ([1, 4], [0, -1]),
    "n_angular": ([3, 12], [2, 0]),
    "k": ([1, 2.5, 3], [0.5, -1, 10**400]),
    "seed": ([None, 0, 7], []),
}
READS = {
    "unit_square": {"n"},
    "annulus": {"r_in", "r_out", "n_radial", "n_angular"},
    "cusp": {"n", "k"},
}

# experiment parameter -> (valid values, out-of-range values)
PARAMS = {
    "levels": ([3], [0, -1]),
    "base_n": ([2, 4], [1, 0]),
    "p": ([3, 4.0], [1.0, 0.5, 10**400]),
    "k": ([1, 2.5], [0.5, -1.0, -10**400]),
    "n": ([2, 3], [1, -1]),
    "n_pairs": ([10, 40], [9, 0]),
    "seed": ([0, 3], [-1]),
    "p_values": ([[2.0], [2, 3.0]], [[1.0], [2.0, 0.5]]),
    "r_in_schedule": ([[0.1], [0.05, 0.01]], [[-1], [0.0], [0.5]]),
}


def _choice(valid, out_of_range, wrong, optional=True):
    """Strategy for (value, label); label "absent" means leave the key out."""
    options = ([(v, "valid") for v in valid] + [(v, "out") for v in out_of_range]
               + [(v, "wrong") for v in wrong])
    if optional:
        options.append((None, "absent"))
    return st.sampled_from(options)


@st.composite
def mesh_configs(draw):
    kind, kind_ok = draw(st.sampled_from(
        [(k, True) for k in READS] + [(k, False) for k in ("disk", 3, None, ["cusp"])]))
    domain, usage_error = {"kind": kind}, not kind_ok
    for fld in dataclasses.fields(DomainSpec)[1:]:
        name = fld.name
        valid, out = DOMAIN[name]
        wrong = WRONG_FLOAT if isinstance(fld.default, float) else WRONG_INT
        if fld.default is None:
            wrong = [w for w in wrong if w is not None]
        value, label = draw(_choice(valid, out, wrong))
        if label != "absent":
            domain[name] = value
        usage_error |= label == "wrong" or (
            label == "out" and kind_ok and name in READS[kind])
    cfg = {"domain": domain}
    value, label = draw(_choice([0, 1], [-1], WRONG_INT))
    if label != "absent":
        cfg["refine"] = value
    return cfg, usage_error or label in ("out", "wrong")


@st.composite
def verify_configs(draw):
    name = draw(st.sampled_from(sorted(verify.EXPERIMENTS)))
    cfg, usage_error = {}, False
    # Every parameter is drawn, so no run falls back on a costly default.
    for key, param in inspect.signature(verify.EXPERIMENTS[name]).parameters.items():
        valid, out = PARAMS[key]
        default = param.default
        wrong = (WRONG_LIST if isinstance(default, tuple)
                 else WRONG_FLOAT if isinstance(default, float) else WRONG_INT)
        cfg[key], label = draw(_choice(valid, out, wrong, optional=False))
        usage_error |= label != "valid"
    return name, cfg, usage_error


SIDES = {"dirichlet": ["left", "right"], "neumann": ["bottom", "top"]}
# solve-plap partitions that are usage errors: an unknown tag, a tag in
# both regions, no Dirichlet region; and tag lists or a partition of the
# wrong type
BAD_PARTITIONS = [
    {"dirichlet": ["left", "right", "nowhere"], "neumann": ["bottom", "top"]},
    {"dirichlet": ["left", "right"], "neumann": ["right", "bottom", "top"]},
    {"neumann": ["left", "right", "bottom", "top"]},
    {"dirichlet": [], "neumann": ["left", "right", "bottom", "top"]},
]
WRONG_PARTITIONS = [
    {"dirichlet": "left", "neumann": ["right", "bottom", "top"]},
    {"dirichlet": ["left", "right"], "neumann": {"bottom": 1, "top": 2}},
    ["left", "right"],
]


# solve-plap field -> (valid, out of range or invalid, wrong type)
PLAP = {
    "p": ([1.5, 2, 4.0], [1.0, 0.5, -3, 10**400], WRONG_FLOAT),
    "tol": ([1e-8, 1e-4], [0.0, -1e-6, 10**400], WRONG_FLOAT),
    "certificate": ([True, False], [], ["no", "true", 0, 1, None, []]),
    "partition": ([SIDES], BAD_PARTITIONS, WRONG_PARTITIONS),
    "data": ([{"f": "sin(3 * x * y) + y"}, {"f": "x"}, {}],
             [{"f": "z + x"}, {"f": "gamma(x)"}, {"f": "x +"}, {"f": "log(x)"},
              {"f": "1/0"}],
             [{"f": 3}, {"f": None}, {"f": ["x"]}, "x"]),
}


@st.composite
def plap_configs(draw):
    """solve-plap on a unit square with n <= 4.  At most one field is
    broken per draw, so each usage error is seen on its own: p is required
    (leaving it out is a usage error), the partition is always given."""
    cfg = {"domain": {"kind": "unit_square", "n": draw(st.sampled_from([2, 3, 4]))}}
    broken = draw(st.sampled_from([None, *PLAP]))
    for key, (valid, out, wrong) in PLAP.items():
        if key == broken:
            value, label = draw(_choice([], out, wrong, optional=key == "p"))
        else:
            value, label = draw(_choice(valid, [], [], optional=key not in ("p", "partition")))
        if label != "absent":
            cfg[key] = value
    return cfg, broken is not None


# Data expressions: valid, invalid (unknown name, syntax, a value that is
# not finite somewhere on the mesh or the boundary, not numbers, not real,
# not one value per point, and the attribute, lambda, subscript and keyword
# forms outside the arithmetic whitelist), wrong type.
DATA_G = (["0", "x - y", "sin(3 * x * y)"],
          ["z + x", "gamma(x)", "x +", "log(x)", "exp(1000 * y)",
           "sin", "x(1)", "1j*x", "[x, y]", "x.real", "(lambda: x)()", "x[0]",
           "hypot(x, y=y)", "9**9**9"], [3, None, ["x"]])
DATA_THETA = (["0", "nx * x + ny * y", "1 + r"],
              ["nz", "gamma(nx)", "nx +", "sqrt(-1 - r)", "10**400 * nx",
               "1j * nx", "[nx, ny]", "nx.__class__", "(lambda n=nx: n)()",
               "ny[1:]", "maximum(nx, ny, out=nx)"],
              [3, None, ["nx"]])
RTOL = ([1e-12, 1e-8], [0.0, -1e-6, 10**400], WRONG_FLOAT)
# solve-laplace and solve-neumann field -> (valid, invalid, wrong type);
# "data.*" keys are drawn into the data object
LAPLACE = {
    "data.f": (["0", "x"], ["x * q", "1/x"], [1.5]),
    "data.g": DATA_G,
    "data.theta": DATA_THETA,
    "rtol": RTOL,
}
NEUMANN = {
    "data.g": DATA_G,
    "data.theta": DATA_THETA,
    "gauge": (["mean", "vertex"], ["Mean", "zero", ""], [None, 0, True, ["mean"]]),
    "rtol": RTOL,
}


@st.composite
def solve_configs(draw, fields, partition):
    """A solve on a unit square with n <= 4 and at most one broken field,
    each field optional; partition is the fixed partition config or None."""
    cfg = {"domain": {"kind": "unit_square", "n": draw(st.sampled_from([2, 3, 4]))},
           "data": {}}
    if partition is not None:
        cfg["partition"] = partition
    broken = draw(st.sampled_from([None, *fields]))
    for key, (valid, out, wrong) in fields.items():
        if key == broken:
            value, label = draw(_choice([], out, wrong, optional=False))
        else:
            value, label = draw(_choice(valid, [], []))
        if label != "absent":
            where, _, name = key.rpartition(".")
            (cfg[where] if where else cfg)[name] = value
    return cfg, broken is not None


def _run(argv, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "run"
        path = pathlib.Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*argv, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code:
            record = json.loads((out / "error.json").read_text())
            assert record["exit_code"] == code
        return code


@FUZZ
@given(mesh_configs())
def test_mesh_config_fuzz(drawn):
    cfg, usage_error = drawn
    code = _run(["mesh"], cfg)
    if usage_error:
        assert code == 2, cfg


@FUZZ
@given(verify_configs())
def test_verify_config_fuzz(drawn):
    name, cfg, usage_error = drawn
    code = _run(["verify", name], cfg)
    if usage_error:
        assert code == 2, (name, cfg)


@FUZZ
@given(plap_configs())
def test_solve_plap_config_fuzz(drawn):
    cfg, usage_error = drawn
    code = _run(["solve-plap"], cfg)
    assert (code == 2) == usage_error, cfg


@FUZZ
@given(solve_configs(LAPLACE, SIDES))
def test_solve_laplace_config_fuzz(drawn):
    cfg, usage_error = drawn
    code = _run(["solve-laplace"], cfg)
    assert (code == 2) == usage_error, cfg


@FUZZ
@given(solve_configs(NEUMANN, None))
def test_solve_neumann_config_fuzz(drawn):
    cfg, usage_error = drawn
    code = _run(["solve-neumann"], cfg)
    assert (code == 2) == usage_error, cfg
