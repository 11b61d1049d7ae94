"""Tests of the package's surface: the names each __all__ and the README promise, and no dead private helper."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

import pytest

import morsereduce

MODULES = sorted(info.name for info in pkgutil.iter_modules(morsereduce.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_name_in_all_resolves(name):
    # perfbench/bench_trace.py wraps each layer's public functions by
    # getattr over its __all__, so a stale entry breaks the traced run.
    mod = importlib.import_module("morsereduce" + (f".{name}" if name else ""))
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def package_layout_rows():
    """(module, identifiers) of each row of README's "Package layout" table.

    The identifiers are the backticked spans that are a name or a call
    such as `bpl(r, target, m)`, whose name is kept; other spans, such as
    `verify=False` or a command line, are not names to resolve.
    """
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        row = re.fullmatch(r"\| `(morsereduce\.\w+)` \| (.*) \|", line)
        if row:
            spans = re.findall(r"`([^`]+)`", row[2])
            names = [m[1] for m in map(re.compile(r"([A-Za-z_]\w*)(\(.*\))?").fullmatch, spans) if m]
            rows.append((row[1], names))
    return rows


def test_every_name_in_the_readme_package_table_resolves():
    # A public name removed from a module must leave the docs too.
    rows = package_layout_rows()
    assert len(rows) >= 9 and all(names for _, names in rows)
    missing = [
        (module, name)
        for module, names in rows
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_star_import_binds_exactly_the_package_all():
    namespace: dict = {}
    exec("from morsereduce import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(morsereduce.__all__)


def test_every_import_is_relative_or_from_the_standard_library():
    # The package runs on the interpreter alone: no runtime dependency.
    outside = []
    for path in sorted(pathlib.Path(morsereduce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_private_definition_is_used():
    # A private function, method or class is there for a caller in the
    # package: once a change removes its last use, the helper goes too.
    # A use is a name, an attribute or an import anywhere but inside the
    # definition itself.
    defined: dict[str, str] = {}
    used: dict[str, int] = {}
    inside: dict[str, int] = {}

    def uses(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2]

    for path in sorted(pathlib.Path(morsereduce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in uses(tree):
            used[name] = used.get(name, 0) + 1
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined[name] = path.name
                    inside[name] = inside.get(name, 0) + sum(n == name for n in uses(node))
    unused = sorted(
        (file, name) for name, file in defined.items() if used.get(name, 0) <= inside[name]
    )
    assert unused == []


def record_writers():
    """(module, function) of each place in the package that sets a matrix's _record.

    A write is a setattr call, ``object.__setattr__`` or an alias of it,
    on the name "_record" with any value but the constant None (which the
    slot initializer gives every new matrix), or an assignment to an
    attribute named _record. A write in a nested function counts for it
    and for each function around it.
    """
    sites = []
    for path in sorted(pathlib.Path(morsereduce.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and len(node.args) == 3:
                    _, name, value = node.args
                    write = (
                        isinstance(name, ast.Constant)
                        and name.value == "_record"
                        and not (isinstance(value, ast.Constant) and value.value is None)
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    write = any(isinstance(t, ast.Attribute) and t.attr == "_record" for t in targets)
                else:
                    write = False
                if write:
                    sites.append((path.name, func.name))
    return sites


def test_only_the_boundary_check_and_permute_pair_write_a_record():
    # mul remembers no product: a record is written where the check
    # D1 . D2 = 0 found a zero product, and carried by _permute_pair to
    # the permuted pair. Nothing else writes one.
    assert sorted(record_writers()) == [("gf2.py", "_annihilates"), ("gf2.py", "_permute_pair")]
