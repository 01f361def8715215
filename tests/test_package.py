import ast
import pathlib

import paraunitary as pu


def test_public_names_resolve_once_and_sorted():
    names = pu.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pu, name)] == []


def _linalg_norms(tree):
    """Line numbers that name numpy's ``linalg.norm``, by attribute or by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "norm":
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                yield node.lineno
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name == "norm" for alias in node.names):
                yield node.lineno


def test_every_norm_goes_through_the_numfield_kernel():
    src = pathlib.Path(pu.__file__).parent
    found = {path.name: list(_linalg_norms(ast.parse(path.read_text())))
             for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself finds both spellings
    sample = "import numpy as np\nfrom numpy.linalg import norm\nnp.linalg.norm(x)\n"
    assert sorted(_linalg_norms(ast.parse(sample))) == [2, 3]


def _import_faults(module: str, tree):
    """Imports of ``jsonio`` outside ``cli``, and imports inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield f"{module}:{inner.lineno} imports in a function"
        if module != "cli" and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any(name.split(".")[-1] == "jsonio" for name in names):
                yield f"{module}:{node.lineno} imports jsonio"


def test_only_the_cli_reads_and_writes_through_jsonio():
    src = pathlib.Path(pu.__file__).parent
    found = [fault for path in sorted(src.glob("*.py"))
             for fault in _import_faults(path.stem, ast.parse(path.read_text()))]
    assert found == []
    # the scan itself finds each spelling, and an import inside a function
    sample = ("from .jsonio import canonical_dumps\nfrom . import jsonio\n"
              "import paraunitary.jsonio\ndef f():\n    import json\n")
    assert list(_import_faults("axioms", ast.parse(sample))) == [
        "axioms:1 imports jsonio", "axioms:2 imports jsonio",
        "axioms:3 imports jsonio", "axioms:5 imports in a function",
    ]
    assert list(_import_faults("cli", ast.parse(sample))) == ["cli:5 imports in a function"]
