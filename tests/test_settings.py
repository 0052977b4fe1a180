import ast
import os
from pathlib import Path

import conftest
import ksns


def test_warnings_are_errors_except_one_import_message(pytestconfig):
    # every warning fails a test, except the DeprecationWarning raised when
    # hypothesis's failure report imports libcst: as an error it aborts the
    # whole suite at the first failing hypothesis test
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    assert filters[1:] == [
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"]


def test_blas_runs_one_thread_set_before_numpy_loads():
    # conftest sets the thread count; it takes effect only if numpy (and
    # with it OpenBLAS) was not loaded before conftest ran
    assert not conftest.NUMPY_LOADED_FIRST
    for var in conftest.BLAS_THREAD_VARS:
        assert os.environ[var] == "1"


def _public_defs_and_uses(trees):
    """The public module-level functions and methods, as (label, node), and
    for each name used as a Name, an Attribute or an import alias the ids
    of the function definitions around each use."""
    defs, uses = [], {}

    def visit(node, around):
        if isinstance(node, ast.FunctionDef):
            around = around | {id(node)}
        elif isinstance(node, ast.Name):
            uses.setdefault(node.id, []).append(around)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(around)
        elif isinstance(node, ast.alias):
            for name in (node.name, node.asname):
                uses.setdefault(name, []).append(around)
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
        visit(tree, frozenset())
    return [(label, m) for label, m in defs if not m.name.startswith("_")], uses


def test_every_public_function_has_a_program_caller():
    # a public function or method that nothing in the package names outside
    # its own body is dead code or a test-only helper; the two kept on
    # purpose are the Gauss identity's boundary sum and the series reader.
    # By name, so a name shared with another use only makes this lenient.
    src = Path(ksns.__file__).parent
    trees = [ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))]
    defs, uses = _public_defs_and_uses(trees)
    uncalled = sorted(label for label, node in defs
                      if not any(id(node) not in around
                                 for around in uses.get(node.name, ())))
    assert uncalled == ["BoundaryData.boundary_sum",
                        "DiagnosticsSeries.from_csv"]


def test_no_import_inside_a_function():
    # an import in a function body hides a dependency of its module, such
    # as an import cycle; every module of the package imports at the top
    src = Path(ksns.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
