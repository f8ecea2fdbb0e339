"""Every module of the package uses each name it imports."""

import ast
import importlib
import pathlib

import pytest

import parakkt

PACKAGE = pathlib.Path(parakkt.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} of every import, ``from __future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names read anywhere, quoted annotations included, and those in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= used_names(ast.parse(note.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: imported but never used: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items()))


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nfrom __future__ import x\n"
                     "__all__ = ['e']\n\ndef f(v: 'os.PathLike'):\n    return v\n")
    used = used_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"d"}


SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def benchmark_boundaries():
    """The (module, attribute) pairs ``bench/spans.py`` wraps: every entry of
    its ``BOUNDARIES`` and its ``FACTORIZATION``, read from the source."""
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            tables[node.targets[0].id] = node.value
    entries = ast.literal_eval(tables["BOUNDARIES"]) + (
        ast.literal_eval(tables["FACTORIZATION"]),)
    return [(module, attr) for _, module, attr in entries]


def resolve(module, attr):
    """What a dotted ``attr`` of ``module`` names, or None."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize("module, attr", benchmark_boundaries())
def test_every_benchmark_boundary_resolves(module, attr):
    """A renamed boundary would blank the per-layer metrics that rest on it."""
    assert callable(resolve(module, attr)), f"{module}.{attr} is gone"


def test_a_missing_boundary_does_not_resolve():
    assert resolve("parakkt.parabolic", "_StepSolver.solve") is not None
    assert resolve("parakkt.parabolic", "_StepSolver.absent") is None
    assert resolve("parakkt.parabolic", "absent.solve") is None
