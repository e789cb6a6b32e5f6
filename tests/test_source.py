"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import singfem

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "singfem"
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


def _noqa_imports(text):
    """Names bound by the top-level imports whose line carries `# noqa: F401`."""
    lines = text.splitlines()
    return [alias.asname or alias.name for node in ast.parse(text).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "# noqa: F401" in lines[node.lineno - 1] for alias in node.names]


def test_the_only_unread_imports_are_the_tracer_patch_points():
    # perfbench/tracer.py wraps these module attributes to time the
    # factorizations and the CG solves; nothing in the module reads them.
    assert sorted(f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                  for name in _noqa_imports(path.read_text())) == [
        "plaplace.conjugate_gradient", "plaplace.splu", "verify.conjugate_gradient"]


def test_all_is_sorted_and_names_every_package_import():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert singfem.__all__ == sorted(imported)


def _references(text):
    """{name: every ast.Name id and ast.Attribute attr inside its
    definition} for each top-level def, class and assigned name."""
    refs = {}
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        used = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}
        for name in names:
            refs.setdefault(name, set()).update(used)
    return refs


def _unreached(texts, roots):
    """The top-level names of the module texts that no chain of
    references from the roots reaches, sorted.  Names are not qualified
    by module: a reference reaches every definition of that name."""
    graph = {}
    for text in texts:
        for name, used in _references(text).items():
            graph.setdefault(name, set()).update(used)
    reached, todo = set(), [root for root in roots if root in graph]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph[name] & graph.keys())
    return sorted(graph.keys() - reached)


def _imported_from_singfem(text):
    return {alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "singfem" for alias in node.names}


def test_every_definition_is_reached():
    """Every top-level definition is reached from a command (main, or an
    experiment of verify.EXPERIMENTS), from the acceptance suite or from
    the benchmark; what none of them reaches gets a command path or goes."""
    roots = {"main", "EXPERIMENTS"}
    for path in [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]:
        roots |= _imported_from_singfem(path.read_text())
    assert _unreached([path.read_text() for path in MODULES], roots) == [
        "prolong",  # the reference that tests check Mesh.prolongation against
        "sharp_p",  # the duality map of ROADMAP item 2, which gives it a command path
    ]


def test_the_reachability_check_follows_calls_attributes_and_dict_values():
    first = ("def main():\n    return helper(1)\n"
             "def helper(x):\n    return x.method\n"
             "def orphan():\n    return LIMIT\n"
             "LIMIT = 3\n"
             "class Unused:\n    def method(self):\n        return orphan()\n")
    second = ("def method():\n    return run_a\n"
              "def run_a():\n    pass\n"
              "def run_b():\n    pass\n"
              "EXPERIMENTS = {'b': run_b}\n")
    assert _unreached([first, second], {"main"}) == [
        "EXPERIMENTS", "LIMIT", "Unused", "orphan", "run_b"]
    assert _unreached([first, second], {"main", "EXPERIMENTS"}) == [
        "LIMIT", "Unused", "orphan"]


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
    function being the def around it, qualified by the classes and defs
    that enclose it ("Class.method"; "<module>" at top level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
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


def _calls(name):
    """The matcher of the calls name(...) and some_module.name(...)."""
    def matches(call):
        func = call.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name
    return matches


def test_only_the_assembler_and_the_edge_graph_build_coo_matrices():
    assert _package_callers(_calls("coo_matrix")) == ["fem._assemble", "geometry._edge_graph"]


def test_the_assembler_check_sees_every_coo_call():
    text = ("from scipy.sparse import coo_matrix\n"
            "def f(d, ij):\n    coo_matrix((d, ij))\n    csr_matrix((d, ij))\n"
            "def g(d, ij):\n    scipy.sparse.coo_matrix((d, ij)).tocsr()\n    coo_array(d)\n"
            "sp.coo_matrix(d)\n")
    assert _callers(text, _calls("coo_matrix")) == [("f", 3), ("g", 6), ("<module>", 8)]


def test_only_the_free_block_solver_assembles_the_stiffness_matrix():
    # One K per (mesh, free set): every constrained solve gets it from
    # laplace._FreeBlockSolver, which assembles it.
    assert _package_callers(_calls("stiffness_matrix")) == ["laplace._FreeBlockSolver.__init__"]


def test_only_the_projection_and_the_poincare_iteration_assemble_the_mass_matrix():
    # A Laplace solve reads M only through <g, hat_i>, which fem._load_vector
    # takes in one element pass; the L^2 projection factors M and the
    # Poincare iteration applies it on every step.
    assert _package_callers(_calls("mass_matrix")) == ["fem.weak_divergence",
                                                       "verify.poincare_constant_2"]


def test_the_caller_check_names_methods_and_nested_defs_by_their_parents():
    text = ("class Solver:\n    def __init__(self, mesh):\n"
            "        self.K = fem.stiffness_matrix(mesh)\n"
            "def f(mesh):\n    def inner():\n        return stiffness_matrix(mesh)\n"
            "    return fem.mass_matrix(mesh)\n")
    assert _callers(text, _calls("stiffness_matrix")) == [("Solver.__init__", 3),
                                                          ("f.inner", 6)]
