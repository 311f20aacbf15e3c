"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import strictform
from strictform.markers import (
    MarkerSystem,
    balance_windows,
    build_marker_system,
    check_balanced,
    check_two_gaps,
)

from marker_helpers import position_rows, reference_check_congruency

SRC = Path(strictform.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so input validation must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floats_outside_cli():
    # exact fractions decide every verdict; only the CLI formats floats
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert found == []


def test_no_marks_attribute():
    # a rectangle holds cells only, and so does a purify gap key: no module
    # reads a flag grid
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "marks"
    ]
    assert found == []


def test_no_chain_attribute():
    # arrays states the canonical chain once (canonical_sizes, amalgamate);
    # a window holds its sizes, and no module reads map tables beside them
    found = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("chain", "maps", "alphabet_sizes")
    ]
    assert found == []


def test_no_positions_attribute():
    # a marker row is stored as its start and gap lengths; a module that
    # read a tuple of every position would rebuild each row in full
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "positions"
    ]
    assert found == []


# what reading a marker system's rows looks like: MarkerSystem.cuts, row,
# flags and steps, and its stored form
_MARKER_READS = {"cuts", "row", "flags", "steps", "top", "patterns"}


def test_purify_reads_markers_only_at_set_up():
    # purify's markers never move: the set-up cuts the base hierarchy's
    # rows into gap slices once per run, and no stage reads a marker
    tree = ast.parse((SRC / "purify.py").read_text())
    set_up = _function_def(tree, "_lift_leaves")
    inside = {id(node) for node in ast.walk(set_up)}
    found = [
        f"purify.py:{node.lineno}:{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in _MARKER_READS
        and id(node) not in inside
    ]
    assert found == []
    assert any(
        isinstance(node, ast.Attribute) and node.attr == "cuts"
        for node in ast.walk(set_up)
    )


# what a purify sample or gap key that carried its markers looked like:
# the per-sample flag rows, the cache that split them and their splitter
_PURIFY_GONE = {"flag_rows", "slices_of", "_window_rows"}


def test_purify_carries_no_flag_rows():
    # no sample field, gap key or replace_bad argument holds a flag row:
    # purify.py names none of them, not even as a slot string
    found = [
        f"purify.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "purify.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _PURIFY_GONE
        or isinstance(node, ast.Name) and node.id in _PURIFY_GONE
        or isinstance(node, ast.FunctionDef) and node.name in _PURIFY_GONE
        or isinstance(node, ast.arg) and node.arg in _PURIFY_GONE
        or isinstance(node, ast.Constant) and node.value in _PURIFY_GONE
    ]
    assert found == []


# what check_balanced's scan over a whole row was made of: the stride of
# its span screen and the two helpers that settled and screened each chunk
_MARKERS_GONE = {"_STRIDE", "_settle", "_spans_hold"}


def test_balance_scans_no_whole_row():
    # check_balanced reads runs of the coarse row: markers.py names none
    # of the scan's parts, not even as a string
    found = [
        f"markers.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "markers.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _MARKERS_GONE
        or isinstance(node, ast.Name) and node.id in _MARKERS_GONE
        or isinstance(node, ast.FunctionDef) and node.name in _MARKERS_GONE
        or isinstance(node, ast.Constant) and node.value in _MARKERS_GONE
    ]
    assert found == []


def _benchmark_hierarchy():
    return build_marker_system(2 * 11664 + 2 * 11665, 0, (2, 36, 11664))


def test_built_system_stores_only_its_top_row():
    # below the top row a built system holds patterns, never a row: its
    # fields are the origin, the 4-gap top row, the patterns and the gaps
    ms = _benchmark_hierarchy()
    assert MarkerSystem.__slots__ == ("lo", "top", "patterns", "gaps")
    assert len(ms.top) == 4
    assert len(ms.patterns) == ms.row_count - 1


def _unread(*args):
    raise AssertionError("a check read a built system's row")


def test_row_checks_read_no_row(monkeypatch):
    # congruency holds by construction, and the reference scan of the rows
    # agrees.  two_gaps comes from the patterns and balance from runs of
    # the coarse row: neither reads a row through MarkerSystem.row or its
    # gap lengths through MarkerSystem.steps
    ms = _benchmark_hierarchy()
    assert reference_check_congruency(position_rows(ms))
    monkeypatch.setattr(MarkerSystem, "row", _unread)
    monkeypatch.setattr(MarkerSystem, "steps", _unread)
    assert all(map(check_two_gaps, ms.gap_counts(), ms.gaps))
    for k, window in enumerate(balance_windows(ms.gaps), start=1):
        assert check_balanced(ms, k, window)


# what a marker system made from positions looked like: its constructor
# and its stored rows
_ONE_FORM_GONE = {"from_positions", "starts", "lengths"}


def test_marker_system_has_one_form():
    # a MarkerSystem is its top row and step patterns: markers.py names
    # no second form, not even as a string, and arrays.py reads an .arr
    # file's markers as position rows without importing markers
    found = [
        f"markers.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "markers.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _ONE_FORM_GONE
        or isinstance(node, ast.Name) and node.id in _ONE_FORM_GONE
        or isinstance(node, ast.FunctionDef) and node.name in _ONE_FORM_GONE
        or isinstance(node, ast.arg) and node.arg in _ONE_FORM_GONE
        or isinstance(node, ast.Constant) and node.value in _ONE_FORM_GONE
    ]
    found += [
        f"arrays.py:{node.lineno}"
        for node in ast.walk(ast.parse((SRC / "arrays.py").read_text()))
        if isinstance(node, ast.ImportFrom) and "markers" in (node.module or "")
        or isinstance(node, ast.Import)
        and any("markers" in alias.name for alias in node.names)
    ]
    assert found == []


_GONE = {"with_row", "positions_between"}


def test_no_marker_row_rewrites():
    # a marker system is never rewritten, and cuts states the window range
    # alone: no module names the row rewrite or a second range reader
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _GONE
        or isinstance(node, ast.Name) and node.id in _GONE
        or isinstance(node, ast.FunctionDef) and node.name in _GONE
    ]
    assert found == []


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


TESTS = Path(__file__).parent


def test_no_unused_imports():
    # the tests too: a name a test imports and never uses is dead weight
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for name, line in _unused_imports(ast.parse(path.read_text())).items()
    ]
    assert found == []


def _absolute_imports(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_stdlib_only_imports():
    # the runtime is pure standard library: every absolute import is stdlib
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _absolute_imports(node)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_strictform_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_def(tree, name):
    return next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name
    )


def _arg_reads(tree, counter):
    # (index, name) of every _arg(args, kwargs, index, name) in a counter
    return [
        (call.args[2].value, call.args[3].value)
        for call in ast.walk(_function_def(tree, counter.__name__))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_arg"
    ]


def test_tracer_targets_exist():
    # a renamed function or argument would silently zero a per-layer metric
    tracer = _load_tracer()
    methods = {}
    for mname, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"strictform.{mname}"), cls_name)
        assert inspect.isfunction(vars(cls)[meth]), (cls_name, meth)
        methods[f"{mname}.{meth}"] = vars(cls)[meth]
    targets = {}
    for name in tracer.NAMED | set(tracer.COUNTERS):
        mname, attr = name.split(".")
        fn = methods.get(name) or getattr(
            importlib.import_module(f"strictform.{mname}"), attr, None
        )
        assert inspect.isfunction(fn), name
        targets[name] = fn
    tree = ast.parse(TRACER.read_text())
    reads = {
        name: _arg_reads(tree, counter)
        for name, counter in tracer.COUNTERS.items()
    }
    assert {name for name, r in reads.items() if r} == {
        "measures.empirical_measure",
        "purify.classify",
        "markers.check_balanced",
    }
    for name, pairs in reads.items():
        params = list(inspect.signature(targets[name]).parameters)
        for index, arg in pairs:
            assert params[index] == arg, (name, index, arg)
    # the methods _count_classify calls on its rect argument, looked up on
    # the class that classify annotates rect with
    classify = targets["purify.classify"]
    rect_cls = classify.__globals__[
        inspect.signature(classify).parameters["rect"].annotation
    ]
    called = {
        call.func.attr
        for call in ast.walk(_function_def(tree, "_count_classify"))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "rect"
    }
    assert called == {"without_marks"}
    for meth in called:
        assert inspect.isfunction(vars(rect_cls).get(meth)), meth


PERFBENCH = TRACER.parent

# entry points of the paper's model half that no command runs yet; only
# the tests call them, until a command wires each one and it leaves this set
UNWIRED = {
    "assemble.embed_periodic", "assemble.embed_aperiodic",
    "assemble.reconstruct", "assemble.convergence_check",
    "arrays.write_arr", "arrays.shift", "arrays.ArrayWindow.column",
}


def _public_definitions(tree):
    # (qualified name, node) of each public top-level function and class,
    # and of each public method
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("_")
                ):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_entry_point_has_a_caller():
    # an entry point that only tests call is dead weight in the package:
    # each public name must be read in src/ or perfbench/ outside its own
    # definition
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    }
    reads = sum(map(_names, trees.values()), Counter())
    found = {
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for name, node in _public_definitions(tree)
        if reads[node.name] == _names(node)[node.name]
    }
    assert found == UNWIRED
