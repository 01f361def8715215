"""JSON wire formats and canonical serialization.

Payloads are plain dicts/lists of Python scalars, and the subspaces and
Laurent operators that check reports hold.  ``canonical_dumps`` emits
byte-stable output: object keys sorted, floats at a fixed 17 significant
digits, no whitespace.  Payloads round-trip in value, not in the sign of
zero: ``-0.0`` is written ``-0``, which reads back as ``0``.  This is the
only module that knows a wire format.
"""

from __future__ import annotations

import functools
import json
import re

import numpy as np

from .laurent import LaurentOp
from .numfield import InputError, Subspace, as_matrix
from .ppu import FactorList
from .star_algebra import StarAlgebra, generate_algebra


def canonical_dumps(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


class _FloatArray(list):
    """The nested lists of a float array's entries, carrying the array.

    It equals, and ``json.dumps`` writes, the plain nested lists;
    ``canonical_dumps`` formats the array in one call instead.  The lists
    are a snapshot taken at construction, not a view.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        super().__init__(array.tolist())
        self.array = array


@functools.lru_cache(maxsize=32)
def _template(shape: tuple[int, ...]) -> str:
    """A ``%`` template that writes an array of this shape as nested lists."""
    text = "%.17g"
    for size in reversed(shape):
        text = "[" + ",".join([text] * size) + "]"
    return text


def _emit(obj, parts: list[str]) -> None:
    if isinstance(obj, _FloatArray):
        if not np.isfinite(obj.array).all():
            raise InputError("non-finite float in JSON payload")
        parts.append(_template(obj.array.shape) % tuple(obj.array.ravel().tolist()))
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise InputError("non-finite float in JSON payload")
        parts.append(format(v, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InputError("JSON object keys must be strings")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, Subspace):
        _emit(subspace_to_json(obj), parts)
    elif isinstance(obj, LaurentOp):
        _emit(laurent_to_json(obj), parts)
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    data = np.stack([a.real, a.imag], -1)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        # an empty matrix has no entries for a template to carry
        "data": _FloatArray(data) if data.size else data.tolist(),
    }


def clipped_repr(value) -> str:
    """``repr(value)`` for an error message: past 40 characters, a prefix
    marked with the full length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _json_int(value) -> int:
    """A JSON integer; a float is not truncated and true is not 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected a JSON integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = _json_int(obj["rows"]), _json_int(obj["cols"])
        data = np.array(obj["data"], dtype=object)
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError("matrix JSON needs integer rows, cols and numeric data") from exc
    # numeric strings and booleans would survive a float cast
    if not {type(x) for x in data.flat} <= {int, float}:
        raise InputError("matrix JSON data entries must be real numbers")
    try:
        data = data.astype(np.float64)
    except OverflowError as exc:
        raise InputError("matrix JSON data entry out of range") from exc
    shape = (rows, cols, 2)
    # an empty matrix has no entries to carry the trailing axes
    if data.shape != shape[: data.ndim] or (data.size and data.ndim != 3):
        raise InputError(f"matrix JSON data has shape {data.shape}, expected {shape}")
    # [re, im] pairs are the memory layout of complex128
    return as_matrix(data.reshape(shape).view(np.complex128)[..., 0])


def subspace_to_json(s: Subspace) -> dict:
    return matrix_to_json(s.frame)


def algebra_to_json(a: StarAlgebra) -> dict:
    return {"dim": a.dim, "generators": [matrix_to_json(g) for g in a.generators]}


def algebra_from_json(obj) -> StarAlgebra:
    try:
        dim, gens = _json_int(obj["dim"]), obj["generators"]
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError("algebra JSON needs dim and generators") from exc
    if dim < 1:
        raise InputError("algebra dimension must be positive")
    if not isinstance(gens, list):
        raise InputError("algebra generators must be a list")
    return generate_algebra(dim, [matrix_from_json(g) for g in gens])


def laurent_to_json(op: LaurentOp) -> dict:
    return {
        "dim": op.dim,
        "coeffs": {str(e): matrix_to_json(c) for e, c in op.coeffs.items()},
    }


_EXPONENT_KEY = re.compile(r"-?[0-9]+")


def laurent_from_json(obj) -> LaurentOp:
    try:
        dim, coeffs = _json_int(obj["dim"]), obj["coeffs"]
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError("Laurent JSON needs dim and coeffs") from exc
    if dim < 1:
        raise InputError("Laurent dimension must be positive")
    if not isinstance(coeffs, dict):
        raise InputError("Laurent coeffs must be an object")
    parsed = {}
    for key, mat in coeffs.items():
        # int() alone would also take "1_0", " 7 " and non-ASCII digits
        if not (isinstance(key, str) and _EXPONENT_KEY.fullmatch(key)):
            raise InputError(f"bad exponent key {clipped_repr(key)}")
        try:
            e = int(key)
        except ValueError as exc:  # past int()'s digit limit
            raise InputError(f"bad exponent key {clipped_repr(key)}") from exc
        if e in parsed:  # "0", "00" and "-0" name the same exponent
            raise InputError(f"duplicate exponent key {clipped_repr(key)}")
        parsed[e] = matrix_from_json(mat)
    return LaurentOp(dim, parsed)


def factor_list_to_json(fl: FactorList) -> dict:
    return {
        "shift": fl.shift,
        "factors": [subspace_to_json(m.subspace) for m in fl.factors],
    }
