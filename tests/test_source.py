"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "singfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(text):
    """Names a module imports at top level and never reads, except on
    lines that carry `# noqa: F401`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_import_check_sees_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused_imports(text) == ["os (line 1)", "tau (line 3)"]


def _opens_for_writing(call):
    """Whether a call opens a file for writing: open(path, mode) or
    path.open(mode) with a mode holding "w", "a" or "x" (text or binary;
    a mode that is not a literal counts), or path.write_text/write_bytes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax") for m in modes)


def _callers(text, matches):
    """(function, line) of every call for which matches(call) holds, the
    function being the innermost def around it ("<module>" at top level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(text), "<module>")
    return found


def _package_callers(matches):
    return sorted(f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
                  for where, _ in _callers(path.read_text(), matches))


def test_only_the_artifact_writer_and_the_error_record_write_files():
    assert _package_callers(_opens_for_writing) == ["cli._emit_error", "cli._write_artifact"]


def test_the_writer_check_sees_every_write_mode():
    text = ('def f(p):\n    open(p)\n    open(p, "rb")\n    open(p, "ab")\n'
            'def g(p, m):\n    p.open(mode="x")\n    open(p, m)\n    p.write_bytes(b"")\n'
            '    p.open("r")\n'
            'open("log", mode="w+")\n')
    assert _callers(text, _opens_for_writing) == [("f", 4), ("g", 6), ("g", 7), ("g", 8),
                                                  ("<module>", 10)]


def _builds_coo(call):
    """Whether a call is coo_matrix(...) or some_module.coo_matrix(...)."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "coo_matrix"


def test_only_the_assembler_and_the_edge_graph_build_coo_matrices():
    assert _package_callers(_builds_coo) == ["fem._assemble", "geometry._edge_graph"]


def test_the_assembler_check_sees_every_coo_call():
    text = ("from scipy.sparse import coo_matrix\n"
            "def f(d, ij):\n    coo_matrix((d, ij))\n    csr_matrix((d, ij))\n"
            "def g(d, ij):\n    scipy.sparse.coo_matrix((d, ij)).tocsr()\n    coo_array(d)\n"
            "sp.coo_matrix(d)\n")
    assert _callers(text, _builds_coo) == [("f", 3), ("g", 6), ("<module>", 8)]
