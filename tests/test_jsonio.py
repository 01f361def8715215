import json

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import jsonio
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import InputError

from conftest import diag_algebra, oracle_canonical_dumps, rand_matrix


def test_matrix_roundtrip():
    m = rand_matrix(np.random.default_rng(1), 3, 2)
    back = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_matrix_schema_checks():
    with pytest.raises(InputError):
        jsonio.matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(InputError):
        jsonio.matrix_from_json({"rows": 2, "cols": 1, "data": [[[0, 0]]]})


def test_subspace_frame_roundtrips_bitwise():
    s = pu.orthonormal_basis(rand_matrix(np.random.default_rng(2), 4, 2))
    back = pu.Subspace(jsonio.matrix_from_json(jsonio.subspace_to_json(s)))
    assert back.frame.tobytes() == s.frame.tobytes()


def test_laurent_roundtrip():
    op = LaurentOp(2, {-2: np.eye(2), 3: 2j * np.eye(2)})
    back = jsonio.laurent_from_json(jsonio.laurent_to_json(op))
    assert back.exponents == op.exponents
    for e in op.exponents:
        assert np.array_equal(back.coeff(e), op.coeff(e))


# int() would read "1_0" as 10, " 7 " as 7 and the Arabic-Indic digits as 12
@pytest.mark.parametrize("key", ["x", "1_0", " 7 ", "\u0661\u0662"])
def test_laurent_rejects_bad_exponent_keys(key):
    with pytest.raises(InputError, match="bad exponent key"):
        jsonio.laurent_from_json({"dim": 1, "coeffs": {key: jsonio.matrix_to_json(np.eye(1))}})


def test_laurent_keys_are_signed_decimal_strings():
    one = jsonio.matrix_to_json(np.eye(1))
    op = jsonio.laurent_from_json({"dim": 1, "coeffs": {"-0": one, "-007": one, "12": one}})
    assert op.exponents == (-7, 0, 12)
    for zeros in (["0", "-0"], ["00", "0"]):
        with pytest.raises(InputError, match="duplicate exponent key"):
            jsonio.laurent_from_json({"dim": 1, "coeffs": dict.fromkeys(zeros, one)})


def test_algebra_roundtrip_regenerates():
    a = diag_algebra(3)
    back = jsonio.algebra_from_json(jsonio.algebra_to_json(a))
    assert back.linear_dim == a.linear_dim
    assert a.same_span(back)


def test_canonical_sorted_keys_and_floats():
    text = jsonio.canonical_dumps({"b": 1.0, "a": [True, None, 0.5]})
    assert text == '{"a":[true,null,0.5],"b":1}'
    assert json.loads(text) == {"a": [True, None, 0.5], "b": 1.0}


def test_canonical_seventeen_digits():
    v = 1 / 3
    assert jsonio.canonical_dumps(v) == format(v, ".17g")
    assert float(jsonio.canonical_dumps(v)) == v


def test_canonical_rejects_non_finite():
    for value in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(InputError):
            jsonio.canonical_dumps(value)
        with pytest.raises(InputError):
            jsonio.canonical_dumps({"a": [1.0, value]})
        with pytest.raises(InputError):
            jsonio.matrix_to_json(np.array([[1.0, value]]))
        # the one-call path checks the array it carries
        with pytest.raises(InputError):
            jsonio.canonical_dumps(jsonio._FloatArray(np.array([[[0.0, value]]])))


def test_canonical_is_deterministic():
    payload = jsonio.laurent_to_json(LaurentOp(2, {0: np.eye(2) / 3}))
    assert jsonio.canonical_dumps(payload) == jsonio.canonical_dumps(payload)


@pytest.mark.parametrize("seed", range(6))
def test_canonical_matrix_bytes_match_the_recursive_emitter(seed):
    rng = np.random.default_rng([seed, 91])
    rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
    # entries over many decades, with signs, on both parts
    m = rand_matrix(rng, rows, cols) * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
    payload = jsonio.matrix_to_json(m)
    assert jsonio.canonical_dumps(payload) == oracle_canonical_dumps(payload)
    assert json.loads(jsonio.canonical_dumps(payload)) == json.loads(json.dumps(payload))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_canonical_empty_matrix_matches_the_recursive_emitter(shape):
    payload = jsonio.matrix_to_json(np.zeros(shape))
    assert jsonio.canonical_dumps(payload) == oracle_canonical_dumps(payload)
    assert payload["data"] == np.zeros(shape + (2,)).tolist()


def test_canonical_special_values_match_the_recursive_emitter():
    special = np.array([[0.0, -0.0, 1e-320], [1e300, -1e300, 1 / 3]])
    m = special + 1j * special[::-1]
    payload = {
        "matrix": jsonio.matrix_to_json(m),
        "nested": [{"z": jsonio.matrix_to_json(np.eye(2)), "a": [1, 2.5, [None, True]]},
                   (jsonio.matrix_to_json([[-0.0]]), "text")],
        "laurent": jsonio.laurent_to_json(LaurentOp(2, {-1: -np.eye(2), 3: np.eye(2) / 3})),
    }
    text = jsonio.canonical_dumps(payload)
    assert text == oracle_canonical_dumps(payload)
    first_row = "[[0,1.0000000000000001e+300],[-0,-1.0000000000000001e+300],[9.9998886718268301e-321,"
    assert first_row in text


def test_matrix_json_is_plain_nested_lists():
    m = rand_matrix(np.random.default_rng(4), 2, 3)
    plain = np.stack([m.real, m.imag], -1).tolist()
    payload = jsonio.matrix_to_json(m)
    assert payload["data"] == plain and plain == payload["data"]
    assert json.dumps(payload) == json.dumps({"rows": 2, "cols": 3, "data": plain})
