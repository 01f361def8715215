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
