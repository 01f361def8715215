"""Command-line interface with JSON payloads on stdin-free file arguments.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage or
input error.  All randomness flows from --seed through SeedSequence and
the PCG64 generator, and stdout is byte-identical for identical inputs,
flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import axioms
from .jsonio import (
    algebra_from_json,
    canonical_dumps,
    clipped_repr,
    factor_list_to_json,
    laurent_from_json,
    laurent_to_json,
    matrix_to_json,
)
from .laurent import PpuElement
from .numfield import (
    InputError,
    NumericalError,
    Tolerances,
    tolerance_scope,
    tolerances,
)
from .ppu import FactorList, factor_positive, join, leq, meet, random_ppu


def _add_common(parser: argparse.ArgumentParser, run) -> None:
    """The flags every subcommand takes, and ``run(args)``, the command itself."""
    defaults = Tolerances()
    parser.add_argument("--tol-rank", type=float, default=defaults.rank,
                        help="relative singular-value cutoff")
    parser.add_argument("--tol-eq", type=float, default=defaults.eq,
                        help="matrix-equality tolerance")
    parser.add_argument("--tol-trim", type=float, default=defaults.trim,
                        help="Laurent coefficient trim threshold")
    parser.add_argument("--out", default=None, help="write the payload to this file")
    parser.set_defaults(run=run)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves a parser as it found it."""
    parser = argparse.ArgumentParser(
        prog="paraunitary",
        description="Factor, order, and verify pure paraunitary operator polynomials.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an abbreviated flag is a usage error, never taken for the flag it begins
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("factor", help="factor an element into elementary factors")
    p.add_argument("algebra")
    p.add_argument("element")
    _add_common(p, _cmd_factor)

    p = add("lattice", help="meet, join, or compare two elements")
    p.add_argument("op", choices=("meet", "join", "leq"))
    p.add_argument("algebra")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p, _cmd_lattice)

    p = add("verify", help="run the axiom checks on an algebra")
    p.add_argument("algebra")
    p.add_argument("--checks", default=None,
                   help="comma-separated subset of: " + ", ".join(axioms.CHECK_NAMES))
    p.add_argument("--points", type=int, default=4,
                   help="point count for the commutative model check")
    p.add_argument("--samples", type=int, default=100,
                   help="sample count for verification checks")
    p.add_argument("--seed", type=int, default=0, help="root PRNG seed")
    _add_common(p, _cmd_verify)

    p = add("random", help="emit a seeded random group element")
    p.add_argument("algebra")
    p.add_argument("--factors", type=int, default=3)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="root PRNG seed")
    _add_common(p, _cmd_random)

    p = add("commutant", help="emit a basis of the commutant")
    p.add_argument("algebra")
    _add_common(p, _cmd_commutant)

    p = add("eval", help="evaluate an element at a unit-circle point")
    p.add_argument("element")
    p.add_argument("--z", default="1", help="evaluation point, Python complex syntax")
    _add_common(p, _cmd_eval)

    return parser


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    # a decode error, bytes that are not UTF-8, an integer past int()'s
    # digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(payload, out_path: str | None) -> None:
    text = canonical_dumps(payload) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_factor(args) -> int:
    algebra = algebra_from_json(_load_json(args.algebra))
    op = laurent_from_json(_load_json(args.element))
    shift = max(0, -op.lo)
    element = PpuElement(op.shifted(shift), algebra)
    peeled = factor_positive(element)
    result = FactorList(shift, peeled.factors)
    # a shift changes no coefficient, so the product of the factors is
    # compared with the shifted input; factor_positive keeps that product
    residual = float((peeled.assembled.op - element.op).norms.max(initial=0.0))
    if not residual <= tolerances().eq:  # NaN fails too
        raise NumericalError(f"reconstruction residual {residual:.3e} exceeds tolerance")
    _emit(factor_list_to_json(result), args.out)
    sys.stderr.write(canonical_dumps({"reconstruction_residual": residual}) + "\n")
    return 0


def _cmd_lattice(args) -> int:
    algebra = algebra_from_json(_load_json(args.algebra))
    a = PpuElement(laurent_from_json(_load_json(args.a)), algebra)
    b = PpuElement(laurent_from_json(_load_json(args.b)), algebra)
    if args.op == "leq":
        _emit(leq(a, b), args.out)
    else:
        result = meet(a, b) if args.op == "meet" else join(a, b)
        _emit(laurent_to_json(result.op), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise InputError("seed must be non-negative")
    if args.samples < 0:
        raise InputError("sample count must be non-negative")
    algebra = algebra_from_json(_load_json(args.algebra))
    checks = None
    if args.checks is not None:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
    reports = axioms.run_suite(algebra, checks, samples=args.samples,
                               seed=args.seed, n_points=args.points)
    _emit([r.to_json() for r in reports], args.out)
    ok = all(r.passed for r in reports) and not any(r.inconclusive for r in reports)
    return 0 if ok else 1


def _cmd_random(args) -> int:
    if args.seed < 0:
        raise InputError("seed must be non-negative")
    algebra = algebra_from_json(_load_json(args.algebra))
    element = random_ppu(algebra, args.factors, args.shift, args.seed)
    _emit(laurent_to_json(element.op), args.out)
    return 0


def _cmd_commutant(args) -> int:
    algebra = algebra_from_json(_load_json(args.algebra))
    comm = algebra.commutant
    _emit({"dim": comm.dim, "generators": [matrix_to_json(b) for b in comm.basis]},
          args.out)
    return 0


def _cmd_eval(args) -> int:
    op = laurent_from_json(_load_json(args.element))
    try:
        z = complex(args.z)
    except ValueError as exc:
        raise InputError(f"cannot parse evaluation point {clipped_repr(args.z)}") from exc
    _emit(matrix_to_json(op.eval_at(z)), args.out)
    return 0


# an overflow, or a NaN made from one, is reported by the check that sees
# it (no residual check accepts a NaN), not also as a NumPy warning
@np.errstate(over="ignore", invalid="ignore")
def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with tolerance_scope(rank=args.tol_rank, eq=args.tol_eq, trim=args.tol_trim):
            return args.run(args)
    except InputError as exc:
        sys.stderr.write(canonical_dumps({"error": str(exc), "kind": "input"}) + "\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(canonical_dumps({"error": str(exc), "kind": "numerical"}) + "\n")
        return 1


def console_main() -> None:
    raise SystemExit(main())
