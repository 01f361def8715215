"""Fuzz gate for the CLI, in process through ``cli.main``.

Every input, well-formed or not, ends in exit 0, 1 or 2.  On a non-zero
exit (other than ``verify`` exiting 1 with its report) stdout is empty
and stderr is exactly one JSON line, of kind ``numerical`` for exit 1
and ``input`` for exit 2.  No exception escapes.  Every size is bounded:
dims 1-3, at most 3 coefficients and 2 generators.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from paraunitary import CHECK_NAMES, cli

ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e200]), st.floats(-2.0, 2.0))
DIMS = st.integers(1, 3)


def _diagonal(values):
    n = len(values)
    data = [[[values[i] if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]
    return {"rows": n, "cols": n, "data": data}


@st.composite
def _matrices(draw, n):
    if draw(st.booleans()):
        return _diagonal(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    row = st.lists(st.tuples(ENTRIES, ENTRIES).map(list), min_size=n, max_size=n)
    return {"rows": n, "cols": n, "data": draw(st.lists(row, min_size=n, max_size=n))}


def _exponents(low, high):
    # hypothesis leans to the first entry of sampled_from, and +1e30 is
    # the exponent whose power overflows at z = 1.000000001
    return st.integers(low, high) | st.sampled_from([10**30, -10**30])


@st.composite
def _elements(draw, n):
    """t^a P + t^b (1 - P) for a diagonal projection P, or arbitrary coefficients.

    Exponents may also be +-1e30, where a peel that needs a step is refused.
    """
    if draw(st.booleans()):
        bits = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        a, b = draw(_exponents(-1, 2)), draw(_exponents(-1, 2))
        if a == b:
            return {"dim": n, "coeffs": {str(a): _diagonal([1.0] * n)}}
        return {"dim": n, "coeffs": {str(a): _diagonal(bits),
                                     str(b): _diagonal([1.0 - v for v in bits])}}
    exponents = draw(st.lists(_exponents(-2, 3), max_size=3, unique=True))
    return {"dim": n, "coeffs": {str(e): draw(_matrices(n)) for e in exponents}}


@st.composite
def _algebras(draw, n):
    return {"dim": n, "generators": draw(st.lists(_matrices(n), max_size=2))}


_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | ENTRIES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["dim", "coeffs", "generators", "rows", "cols", "data", "0", "1"]),
        inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _files(draw, payloads, n):
    """File text: mostly a well-formed payload (of dimension n or another), else junk."""
    kind = draw(st.sampled_from(["same-dim"] * 4 + ["other-dim", "junk", "not-json"]))
    if kind == "same-dim":
        return json.dumps(draw(payloads(n)))
    if kind == "other-dim":
        return json.dumps(draw(payloads(draw(DIMS))))
    if kind == "junk":
        return json.dumps(draw(_JUNK))
    return draw(st.text(max_size=6))


@st.composite
def _invocations(draw, command):
    """argv with {alg}, {a} and {b} placeholders, and the text of each file."""
    n = draw(DIMS)
    texts = {"alg": draw(_files(_algebras, n)),
             "a": draw(_files(_elements, n)),
             "b": draw(_files(_elements, n))}
    if command == "factor":
        argv = ["factor", "{alg}", "{a}"]
    elif command in ("meet", "join", "leq"):
        argv = ["lattice", command, "{alg}", "{a}", "{b}"]
    elif command == "verify":
        argv = ["verify", "{alg}", "--checks", draw(st.sampled_from(CHECK_NAMES + ("bogus",))),
                "--samples", str(draw(st.sampled_from([0, 1, 20]))), "--points", "2"]
    elif command == "random":
        argv = ["random", "{alg}", "--factors", str(draw(st.integers(-1, 3))),
                "--shift", str(draw(st.integers(-1, 1))), "--seed", str(draw(st.integers(0, 3)))]
    elif command == "commutant":
        argv = ["commutant", "{alg}"]
    else:
        z = draw(st.sampled_from(
            ["1", "-1", "1j", "(0.6+0.8j)", "1.000000001", "0.5", "nan", "x"]))
        argv = ["eval", "{a}", "--z", z]
    return argv, texts


COMMANDS = ["factor", "meet", "join", "leq", "verify", "random", "commutant", "eval"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=200 // len(COMMANDS), derandomize=True, deadline=None)
@given(data=st.data())
def test_every_cli_input_ends_in_an_exit_code_and_at_most_one_error_line(command, data):
    argv, texts = data.draw(_invocations(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)
    if code == 0 or (argv[0] == "verify" and code == 1 and out.getvalue()):
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        assert json.loads(lines[0])["kind"] == {1: "numerical", 2: "input"}[code]
