"""The stacked ``LaurentOp`` and the one-kernel peel against the reference
implementations in ``conftest`` (dict per coefficient, pair-loop products
with explicit elementary factors, heads met by three SVDs).  The Cauchy
product must also match the pair loop over two stacks bitwise, and the
order, which reads a* b on the unit circle, must decide as that product
does."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paraunitary as pu
from paraunitary import laurent, ppu
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import (
    InputError,
    NumericalError,
    identity,
    subspace_residual,
    tolerance_scope,
)

from conftest import (
    ReferenceLaurent,
    block_algebra,
    block_diagonal_algebra,
    diag_algebra,
    doubled_algebra,
    full_algebra,
    load_module,
    rand_matrix,
    random_algebra,
    reference_convolve,
    reference_factors,
    reference_join,
    reference_leq,
    reference_meet,
    reference_random_ppu,
    reference_scattered,
    scalar_algebra,
    stepwise_factor_positive,
    stepwise_join,
    stepwise_meet,
    stepwise_random_ppu,
)

SCALES = [1.0, 1e-300, 1e-163, 1e200]
DIMS = [1, 2, 4, 7]
# (terms of a, terms of b): lopsided, long and zero operands
SHAPES = [(1, 30), (30, 1), (30, 2), (30, 31), (0, 30)]
SHAPE_DIMS = [1, 2, 4, 6, 7, 8]
# (dims, shape, which operands have consecutive exponents): products of
# degree-one factors have contiguous supports, which random ones rarely have
CONTIGUOUS_SHAPES = [
    ((3,), (1, 1), (True, True)),
    ((3,), (2, 1), (True, True)),
    ((3,), (2, 2), (True, True)),
    ((4, 8), (25, 1), (True, True)),
    ((4, 8), (25, 2), (True, True)),
    ((4, 8), (25, 26), (True, True)),
    ((4, 8), (25, 30), (True, False)),
]


def big_shift(rng):
    """A random shift of magnitude up to 1e30, beyond int64."""
    return int(rng.integers(-(10**6), 10**6)) * 10**24


def random_coeffs(rng, n, scale, terms=None, contiguous=False):
    """Up to 8 terms spread over 12 decades, some below the trim, at an offset up to 1e30.

    Given ``terms``, exactly that many spread over 6 decades, so the trim keeps them all,
    at consecutive exponents if ``contiguous``.
    """
    if terms is None:
        t, decades = int(rng.integers(1, 9)), 12.0
    else:
        t, decades = terms, 6.0
    offset = big_shift(rng)
    exps = np.arange(t) - 20 if contiguous else rng.choice(40, size=t, replace=False) - 20
    mags = 10.0 ** rng.uniform(-decades, 0.0, size=t)
    return {offset + int(e): scale * m * rand_matrix(rng, n, n) for e, m in zip(exps, mags)}


def built(build, *args):
    """The element, or the message of the ``InputError`` raised instead."""
    try:
        with np.errstate(over="ignore", under="ignore"):
            return build(*args)
    except InputError as exc:
        return str(exc)


def assert_same(op, ref):
    assert isinstance(op, LaurentOp) and isinstance(ref, ReferenceLaurent)
    assert op.exponents == tuple(ref.coeffs)
    for e, c in ref.coeffs.items():
        # entrywise, so a 1e-300 coefficient is compared without squaring it
        assert np.abs(op.coeff(e) - c).max() <= 1e-12 * np.abs(c).max()


def cases():
    for n in DIMS:
        for scale in SCALES:
            for draw in range(3):
                yield pytest.param(n, scale, draw, id=f"n{n}-{scale:g}-{draw}")


def product_cases():
    """``cases()`` with random term counts, then each of ``SHAPES`` and ``CONTIGUOUS_SHAPES``."""
    for case in cases():
        yield pytest.param(*case.values, None, None, id=case.id)
    for n in SHAPE_DIMS:
        for scale in (1.0, 1e-163):
            for shape in SHAPES:
                yield pytest.param(n, scale, 0, shape, None,
                                   id=f"n{n}-{scale:g}-{shape[0]}x{shape[1]}")
    for dims, shape, contiguous in CONTIGUOUS_SHAPES:
        for n in dims:
            for scale in (1.0, 1e-163):
                kinds = "x".join("contiguous" if c else "gapped" for c in contiguous)
                yield pytest.param(n, scale, 0, shape, contiguous,
                                   id=f"n{n}-{scale:g}-{shape[0]}x{shape[1]}-{kinds}")


@pytest.mark.parametrize("n, scale, draw, shape, contiguous", product_cases())
def test_construction_and_products_match_the_reference(n, scale, draw, shape, contiguous):
    rng = np.random.default_rng([n, draw, 61])
    terms_a, terms_b = shape or (None, None)
    contiguous_a, contiguous_b = contiguous or (False, False)
    a = random_coeffs(rng, n, scale, terms_a, contiguous_a)
    b = random_coeffs(rng, n, scale, terms_b, contiguous_b)
    op_a, ref_a = built(LaurentOp, n, a), built(ReferenceLaurent, n, a)
    op_b, ref_b = built(LaurentOp, n, b), built(ReferenceLaurent, n, b)
    for op, ref in ((op_a, ref_a), (op_b, ref_b)):
        if isinstance(ref, str):
            assert op == ref
        else:
            assert_same(op, ref)
    if isinstance(ref_a, str) or isinstance(ref_b, str):
        return
    if shape is not None:
        assert (len(op_a.exponents), len(op_b.exponents)) == shape
    if contiguous is not None:
        assert tuple(op.hi - op.lo == len(op.exponents) - 1 for op in (op_a, op_b)) == contiguous
    with np.errstate(under="ignore"):
        assert_same(op_a * op_b, ref_a * ref_b)
        assert_same(op_b * op_a.star(), ref_b * ref_a.star())
        # each coefficient of the product is the pair loop's sum, bit for bit
        for x, y in ((op_a, op_b), (op_b, op_a.star())):
            exponents, stack = laurent._convolve(x, y)
            ref_exponents, ref_stack = reference_convolve(x, y)
            assert exponents == ref_exponents
            assert stack.tobytes() == ref_stack.tobytes()
    k = big_shift(rng)
    assert_same(op_a.shifted(k), ref_a.shifted(k))
    assert_same(op_a.star(), ref_a.star())


def assert_same_sum(op, dim, parts):
    """``op`` is the trimmed reference sum of the parts, bit for bit."""
    ref = LaurentOp._make(dim, *reference_scattered(dim, parts))
    assert op.exponents == ref.exponents
    assert op.stack.tobytes() == ref.stack.tobytes()


# supports of two operands: each filling consecutive rows of their union,
# neither, or one of them
SUM_SUPPORTS = [
    ((0, 1, 2), (1, 2, 3)),
    ((0, 2, 5), (1, 3, 4)),
    ((0, 2), (1,)),
    ((-3, -2), (0, 1, 2)),
    ((-3, 4), (0, 1, 2)),
]


@pytest.mark.parametrize("left, right", SUM_SUPPORTS)
def test_sums_add_each_part_as_the_reference_does(left, right):
    rng = np.random.default_rng([len(left), len(right), 64])
    n = 3
    ops = [LaurentOp(n, {e: 10.0 ** rng.uniform(-6, 0) * rand_matrix(rng, n, n) for e in exps})
           for exps in (left, right)]
    parts = [(op.exponents, op.stack) for op in ops]
    union = tuple(sorted(set(left) | set(right)))
    assert_same_sum(ops[0] + ops[1], n, parts)
    # three parts, so the order of the additions shows in the bits
    parts.append((union, rand_matrix(rng, len(union) * n, n).reshape(-1, n, n)))
    exponents, stack = laurent._scattered(n, parts)
    ref_exponents, ref_stack = reference_scattered(n, parts)
    assert exponents == ref_exponents
    assert stack.tobytes() == ref_stack.tobytes()
    # a product with p^(+-1) = t^(+-1) proj + (1 - proj) adds two shifted copies
    s = pu.orthonormal_basis(rand_matrix(rng, n, 2))
    proj = s.projector()
    for op in ops:
        for inverse, on_left in itertools.product((False, True), (False, True)):
            terms = [(0, np.eye(n) - proj), (-1 if inverse else 1, proj)]
            parts = [(tuple(e + k for e in op.exponents), c @ op.stack if on_left else op.stack @ c)
                     for k, c in terms]
            assert_same_sum(op.times_elementary(s, inverse, on_left), n, parts)


# which terms of p^(+-1) = t^(+-1) proj + (1 - proj) survive the trim: a zero
# projector leaves only 1 - proj, a full one (within rounding of 1) only proj
ELEMENTARY_KINDS = {"zero": (0, (0,)), "full": (3, (1,)), "random": (2, (0, 1))}


def assert_elementary_products(op, s, kept):
    """``op`` times p_s or p_s^-1 on either side is the reference sum of the
    kept terms' products, bit for bit."""
    n, proj = op.dim, s.projector()
    for inverse, on_left in itertools.product((False, True), (False, True)):
        terms = [(0, np.eye(n) - proj), (-1 if inverse else 1, proj)]
        parts = [(tuple(e + terms[i][0] for e in op.exponents),
                  terms[i][1] @ op.stack if on_left else op.stack @ terms[i][1]) for i in kept]
        assert_same_sum(op.times_elementary(s, inverse, on_left), n, parts)


@pytest.mark.parametrize("kind", sorted(ELEMENTARY_KINDS))
@pytest.mark.parametrize(
    "support",
    [(), (5,), (4, 5), (0, 1, 2, 3), tuple(range(10**30, 10**30 + 4)), (0, 2, 3)],
    ids=["empty", "one-term", "two-term", "contiguous", "shifted-1e30", "gapped"],
)
def test_elementary_products_add_as_the_reference_does(support, kind):
    rng = np.random.default_rng([len(support), 65])
    n = 3
    rank, kept = ELEMENTARY_KINDS[kind]
    s = pu.orthonormal_basis(rand_matrix(rng, n, rank))
    op = LaurentOp(n, {e: rand_matrix(rng, n, n) for e in support})
    assert_elementary_products(op, s, kept)


def negative_zero_count(array):
    return sum(int(np.count_nonzero((part == 0.0) & np.signbit(part)))
               for part in (array.real, array.imag))


def test_elementary_products_of_negative_zeros_add_into_zeros():
    # a diagonal projector keeps the operand's -0.0 entries in both products,
    # and the reference adds them into +0.0, which turns each into +0.0
    rng = np.random.default_rng(77)
    n = 3
    s = pu.Subspace(np.eye(n)[:, [0, 2]])
    stack = rand_matrix(rng, 4 * n, n).reshape(4, n, n)
    stack[:, :, 0] = -0.0
    stack[1, 0] = -0.0
    op = LaurentOp(n, dict(zip(range(4), stack)))
    pair = s.elementary_pair()[0]
    assert negative_zero_count(pair[:, None] @ op.stack) > 0
    assert negative_zero_count(op.stack @ pair[:, None]) > 0
    assert_elementary_products(op, s, (0, 1))


def test_a_kept_pair_trims_against_the_active_threshold():
    # 1 - pi of a frame a few 1e-9 off orthonormal has norm about 1e-8 times
    # pi's: kept at the default trim, dropped at 1e-6.  The subspace keeps
    # one pair across both scopes and must trim it as a fresh pair would
    rng = np.random.default_rng(78)
    n = 3
    frame = np.linalg.qr(rand_matrix(rng, n, n))[0] * (1.0 + 4e-9)
    kept = pu.Subspace(frame)
    op = LaurentOp(n, {e: rand_matrix(rng, n, n) for e in range(4)})
    for trim, terms in ((1e-10, 2), (1e-6, 1), (1e-10, 2)):
        with tolerance_scope(trim=trim):
            fresh = pu.Subspace(frame)
            proj = fresh.projector()
            assert len(ppu._elementary(kept).exponents) == terms
            assert_same_op(ppu._elementary(kept), LaurentOp(n, {1: proj, 0: np.eye(n) - proj}))
            for inverse, on_left in itertools.product((False, True), (False, True)):
                assert_same_op(op.times_elementary(kept, inverse, on_left),
                               op.times_elementary(fresh, inverse, on_left))


@pytest.mark.parametrize("n, scale, draw", cases())
def test_a_distance_on_one_support_is_the_summed_one(n, scale, draw):
    rng = np.random.default_rng([n, draw, 79])
    a = built(LaurentOp, n, random_coeffs(rng, n, scale))
    if isinstance(a, str):
        assert a == "coefficient norm overflows"
        return
    # each coefficient moved by 1e-16 to 1 of itself, so some differences
    # fall below the trim; and -0.0 against +0.0
    moves = 10.0 ** rng.uniform(-16, 0, size=len(a.exponents))[:, None, None]
    moved = LaurentOp(n, dict(zip(a.exponents, a.stack * (1.0 + moves))))
    signed = []
    for zero in (0.0, -0.0):
        stack = a.stack.copy()
        stack.real[:, 0, 0] = zero
        signed.append(LaurentOp(n, dict(zip(a.exponents, stack))))
    for x, y in [(a, a), (a, -a), (a, moved), (moved, a), signed, signed[::-1]]:
        assert x.exponents == y.exponents
        want = (x - y).norm() / max(1.0, x.norm(), y.norm())
        assert float(x.distance(y)).hex() == float(want).hex()


def assert_same_op(op, ref):
    assert op.exponents == ref.exponents
    assert op.stack.tobytes() == ref.stack.tobytes()
    assert op.norms.tobytes() == ref.norms.tobytes()


@pytest.mark.parametrize("kind", sorted(ELEMENTARY_KINDS))
def test_the_elementary_factor_is_the_dict_built_one(kind):
    rng = np.random.default_rng([ELEMENTARY_KINDS[kind][0], 70])
    n = 3
    s = pu.orthonormal_basis(rand_matrix(rng, n, ELEMENTARY_KINDS[kind][0]))
    proj = s.projector()
    assert_same_op(ppu._elementary(s), LaurentOp(n, {1: proj, 0: np.eye(n) - proj}))


@pytest.mark.parametrize("k", [0, 1, -7, 2**63, -(10**30)])
@pytest.mark.parametrize("n", [1, 4])
def test_a_t_power_is_the_dict_built_one(n, k):
    assert_same_op(LaurentOp.t_power(n, k), LaurentOp(n, {k: np.eye(n)}))


def fresh_circle_residual(op):
    """``paraunitarity_residual`` on the unit circle, with its DFT matrix built afresh."""
    points = 2 * (op.hi - op.lo) + 1
    turns = np.outer(np.arange(points), [e - op.lo for e in op.exponents]) % points
    dft = np.exp((2j * np.pi / points) * turns)
    values = (dft @ op.stack.reshape(len(op.exponents), -1)).reshape(points, op.dim, op.dim)
    gram = values.conj().swapaxes(1, 2) @ values
    scale = max(1.0, op.norm())
    return float(np.linalg.norm(gram - np.eye(op.dim))) / math.sqrt(points) / scale / scale


@pytest.mark.parametrize("support", [(0,), (0, 1, 2), tuple(range(8)), (0, 1, 3), (0, 2, 3, 7)],
                         ids=["one-term", "contiguous", "long", "gapped", "gapped-wide"])
def test_unit_circle_residual_matches_a_fresh_dft(support):
    rng = np.random.default_rng([len(support), 66])
    n = 3
    assert 2 * (support[-1] - support[0]) + 1 <= len(support) ** 2  # the unit-circle path
    offset = big_shift(rng)
    op = LaurentOp(n, {offset + e: rand_matrix(rng, n, n) for e in support})
    element = pu.random_ppu(random_algebra(n, 66), len(support), 0, 67).op.shifted(offset)
    for x in (op, element):
        # the first call may build the kept DFT, the second reuses it
        for _ in range(2):
            assert laurent.paraunitarity_residual(x) == fresh_circle_residual(x)


def random_stack_op(rng, n, exponents):
    return LaurentOp(n, {e: rand_matrix(rng, n, n) for e in exponents})


@pytest.mark.parametrize("terms, step", [(500, 1), (200, 2)], ids=["long", "gapped"])
def test_blocked_circle_residual_matches_one_dft(terms, step):
    # neither support keeps its DFT, and its points span several blocks
    rng = np.random.default_rng([terms, 72])
    op = random_stack_op(rng, 2, range(0, step * terms, step))
    assert 2 * (op.hi - op.lo) + 1 > laurent._DFT_BLOCK
    residual = laurent.paraunitarity_residual(op)
    assert residual == pytest.approx(fresh_circle_residual(op), rel=1e-12, abs=0.0)


def test_a_long_support_is_certified_in_bounded_memory():
    # its whole 5,999 x 3,000 DFT matrix would take 288 MB
    rng = np.random.default_rng(73)
    op = random_stack_op(rng, 2, range(3000))
    tracemalloc.start()
    try:
        residual = laurent.paraunitarity_residual(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    assert math.isfinite(residual) and residual > 0.0


# the order corpus: three non-abelian algebras, degrees up to 48 (where the
# trim cuts the ends of an element), four seeds
ORDER_SPECS = ["full:3", "doubled:3", "block:2+3+3"]
ORDER_DEGREES = [4, 8, 16, 24, 48]


@functools.cache
def order_pairs(spec):
    """(x, x p), (x p, x), (x, y), (y, x), (x, x) and t^(+-1) x against x p, per degree and seed."""
    inputs = load_module("bench/inputs.py")
    a = inputs.build_algebra(spec, 1)
    pairs = []
    for k in ORDER_DEGREES:
        for s in range(4):
            x = pu.random_ppu(a, k, s % 3, 600 + s)
            y = pu.random_ppu(a, k, 0, 700 + s)
            xp = x * inputs.nonzero_factor(a, 800 + s)
            pairs += [(x, xp), (xp, x), (x, y), (y, x), (x, x),
                      (x.shifted(1), xp), (x.shifted(-1), xp)]
    return pairs


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_leq_decides_as_the_cauchy_product_does(spec, monkeypatch):
    pairs = order_pairs(spec)
    want = [reference_leq(x, y) for x, y in pairs]
    assert True in want and False in want
    products = []
    multiply = LaurentOp.__mul__
    monkeypatch.setattr(LaurentOp, "__mul__",
                        lambda a, b: products.append((a.exponents, b.exponents)) or multiply(a, b))
    assert [ppu.leq(x, y) for x, y in pairs] == want
    # every support here is contiguous, so no pair takes the Cauchy product
    assert products == []


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_circle_coefficients_match_the_cauchy_product(spec):
    for x, y in order_pairs(spec):
        got, want = laurent._star_product(x.op, y.op), x.op.star() * y.op
        assert got.exponents == want.exponents
        assert got.distance(want) <= 1e-13


def declined_pairs():
    rng = np.random.default_rng(74)
    n = 3
    proj = np.diag([1.0, 0.0, 1.0])
    contiguous = random_stack_op(rng, n, range(-2, 3))
    return {
        "gapped": (contiguous, random_stack_op(rng, n, (0, 1, 3, 4))),
        "huge-gap": (contiguous, LaurentOp(n, {10**30: proj, 0: np.eye(n) - proj})),
        "long": (random_stack_op(rng, n, range(65)), random_stack_op(rng, n, range(5, 70))),
        "one-term-left": (LaurentOp(n, {7: rand_matrix(rng, n, n)}), contiguous),
        "one-term-right": (contiguous, LaurentOp.t_power(n, -(10**30))),
        "zero": (LaurentOp(n, {}), contiguous),
    }


@pytest.mark.parametrize(
    "case", ["gapped", "huge-gap", "long", "one-term-left", "one-term-right", "zero"]
)
def test_declined_pairs_take_the_cauchy_product(case):
    a, b = declined_pairs()[case]
    got, want = laurent._star_product(a, b), a.star() * b
    assert got.exponents == want.exponents
    assert got.stack.tobytes() == want.stack.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), st.integers(0, 10**6))
def test_circle_star_product_of_random_stacks(ta, tb, n, seed):
    rng = np.random.default_rng([seed, 75])
    la, lb = big_shift(rng), big_shift(rng)
    a = random_stack_op(rng, n, range(la, la + ta))
    b = random_stack_op(rng, n, range(lb, lb + tb))
    got, want = laurent._star_product(a, b), a.star() * b
    assert got.exponents == want.exponents
    assert got.distance(want) <= 1e-13


def test_kept_constants_are_read_only():
    n = 3
    a = random_algebra(n, 68)
    assert identity(n) is identity(n)
    s = pu.random_projection_in(a, 69).subspace
    proj = s.projector()
    assert (identity(n) - proj).tobytes() == (np.eye(n) - proj).tobytes()
    assert a._vec_h.tobytes() == a._vec.conj().T.tobytes()
    pair, norms = s.elementary_pair()
    t_zero = laurent._t_zero(n)
    assert laurent._t_zero(n) is t_zero
    for array in (identity(n), laurent._contiguous_dft(3), a._vec_h, pair, norms,
                  t_zero.stack, t_zero.norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


@pytest.mark.parametrize("n, scale, draw", cases())
def test_star_and_shifted_keep_the_norms(n, scale, draw):
    rng = np.random.default_rng([n, draw, 62])
    op = built(LaurentOp, n, random_coeffs(rng, n, scale))
    if isinstance(op, str):
        assert op == "coefficient norm overflows"
        return
    k = big_shift(rng)
    assert np.array_equal(op.star().norms, op.norms[::-1])
    assert np.array_equal(op.shifted(k).norms, op.norms)
    assert np.array_equal((-op).norms, op.norms)
    assert op.star().norm() == op.norm() == op.shifted(k).norm()
    # the kept norms are the norms of the coefficients, as a fresh build finds them
    fresh = LaurentOp(n, dict(op.star().coeffs))
    assert fresh.exponents == op.star().exponents
    np.testing.assert_allclose(fresh.norms, op.star().norms, rtol=1e-14)


def lattice_cases():
    for n in DIMS:
        for draw in range(3):
            yield pytest.param(n, draw, id=f"n{n}-{draw}")


@pytest.mark.parametrize("n, draw", lattice_cases())
def test_lattice_operations_match_the_reference(n, draw):
    rng = np.random.default_rng([n, draw, 63])
    a = random_algebra(n, 100 * n + draw)
    eq = pu.tolerances().eq
    offset = [0, 10**30, -(10**30)][draw]
    ks = [int(k) for k in rng.integers(1, 9, size=2)]
    shifts = [offset + int(s) for s in rng.integers(-3, 4, size=2)]
    seeds = [int(s) for s in rng.integers(0, 10**6, size=2)]
    x, y = (pu.random_ppu(a, k, s, seed) for k, s, seed in zip(ks, shifts, seeds))
    for el, k, s, seed in zip((x, y), ks, shifts, seeds):
        assert el.op.distance(reference_random_ppu(a, k, s, seed)) <= eq
    assert pu.meet(x, y).op.distance(reference_meet(x, y)) <= eq
    assert pu.join(x, y).op.distance(reference_join(x, y)) <= eq
    positive = pu.random_ppu(a, ks[0], 0, seeds[0])
    factors = pu.factor_positive(positive).factors
    expected = reference_factors(positive)
    assert len(factors) == len(expected)
    for got, want in zip(factors, expected):
        assert subspace_residual(got.subspace, want) <= eq


STEPWISE_ALGEBRAS = {
    "full:3": lambda: full_algebra(3, seed=11),
    "full:4": lambda: full_algebra(4, seed=12),
    "full:7": lambda: full_algebra(7, seed=13),
    "doubled:3": lambda: doubled_algebra(3, seed=14),
    "block:2+3": lambda: block_algebra([2, 3], seed=15),
    "block:2+2+3": lambda: block_algebra([2, 2, 3], seed=16),
    "block:2+3+3": lambda: block_algebra([2, 3, 3], seed=17),
}


def outcome(run, *args):
    """What ``run`` answers, as exponents and bytes (the frames of a
    factorization too), or the class and message of what it raises."""
    try:
        out = run(*args)
    except (InputError, NumericalError) as exc:
        return type(exc), str(exc)
    if isinstance(out, pu.FactorList):
        out = out.factors, out.assembled
    frames = None
    if isinstance(out, tuple):
        members, out = out
        frames = [m.subspace.frame.tobytes() for m in members]
    return frames, out.op.exponents, out.op.stack.tobytes(), out.op.norms.tobytes()


@pytest.mark.parametrize("name", sorted(STEPWISE_ALGEBRAS))
def test_chunked_certification_answers_as_the_stepwise_peel_does(name):
    # the peel certifies its divisors in one call and products start from
    # their first factor: every answer and every error is bitwise that of
    # the peel that certified each step and the products from t^k
    a = STEPWISE_ALGEBRAS[name]()
    for k in (1, 2, 3, 4, 8, 16):
        for seed in range(4):
            shift = seed % 2 - 1
            x = pu.random_ppu(a, k, shift, seed)
            assert outcome(lambda: x) == outcome(stepwise_random_ppu, a, k, shift, seed)
            y = pu.random_ppu(a, k, 0, seed + 100)
            positive = x.shifted(-x.lo)
            for got, want, args in ((pu.factor_positive, stepwise_factor_positive, (positive,)),
                                    (pu.meet, stepwise_meet, (x, y)),
                                    (pu.join, stepwise_join, (x, y)),
                                    (pu.meet, stepwise_meet, (y, y.shifted(1)))):
                assert outcome(got, *args) == outcome(want, *args)


# abelian algebras and the coordinates that span each of their atoms
ABELIAN = {
    "scalars:2": (lambda: scalar_algebra(2), [[0, 1]]),
    "diagonal:3": (lambda: diag_algebra(3), [[0], [1], [2]]),
    "diagonal:4": (lambda: diag_algebra(4), [[0], [1], [2], [3]]),
    "1_2+1_3": (lambda: block_diagonal_algebra([np.eye(2), 2 * np.eye(3)]), [[0, 1], [2, 3, 4]]),
}


def atomic_element(a, atoms, vec):
    """sum_i t^(vec_i) E_i, E_i the coordinate projector onto ``atoms[i]``."""
    coeffs = {}
    for idx, e in zip(atoms, vec):
        c = coeffs.setdefault(int(e), np.zeros((a.dim, a.dim)))
        c[idx, idx] = 1.0
    return pu.PpuElement(LaurentOp(a.dim, coeffs), a)


@pytest.fixture
def peels(monkeypatch):
    """The calls of the greedy peel, counted."""
    calls = []
    peel = ppu._peel

    def counted(*args, **kwargs):
        calls.append(args)
        return peel(*args, **kwargs)

    monkeypatch.setattr(ppu, "_peel", counted)
    return calls


def negative_zeros(array):
    parts = np.stack([array.real, array.imag])
    return int(np.count_nonzero((parts == 0.0) & np.signbit(parts)))


def exactly(got, want):
    """Same exponents and bitwise the same 0/1 coefficients, no negative zero."""
    return (got.op.exponents == want.op.exponents
            and np.array_equal(got.op.stack, want.op.stack)
            and set(got.op.stack.ravel().tolist()) <= {0, 1}
            and negative_zeros(got.op.stack) == 0)


@pytest.mark.parametrize("name", ABELIAN)
def test_exponent_vectors_answer_as_the_peel_does(name, peels):
    make, atoms = ABELIAN[name]
    a = make()
    assert a.atoms is not None and len(a.atoms.frames) == len(atoms)
    rng = np.random.default_rng([len(name), 64])
    eq = pu.tolerances().eq
    for _ in range(6):
        # gaps, negative exponents, and equal entries
        u, v = (rng.choice([-7, -2, 0, 1, 5, 9], len(atoms)) for _ in range(2))
        x, y = atomic_element(a, atoms, u), atomic_element(a, atoms, v)
        meet, join = pu.meet(x, y), pu.join(x, y)
        assert exactly(meet, atomic_element(a, atoms, np.minimum(u, v)))
        assert exactly(join, atomic_element(a, atoms, np.maximum(u, v)))
        assert meet.op.distance(reference_meet(x, y)) <= eq
        assert join.op.distance(reference_join(x, y)) <= eq
        for p, q, up, uq in ((x, y, u, v), (y, x, v, u), (x, meet, u, np.minimum(u, v))):
            assert pu.leq(p, q) == bool(np.all(up <= uq))
            assert pu.leq(p, q) == pu.in_positive_cone(p.op.star() * q.op)
        w = u - u.min()
        positive = atomic_element(a, atoms, w)
        factors = pu.factor_positive(positive).factors
        expected = reference_factors(positive)
        assert len(factors) == len(expected) == w.max()
        for got, want in zip(factors, expected):
            assert subspace_residual(got.subspace, want) <= eq
            assert negative_zeros(got.subspace.frame) == 0
    assert peels == []


def test_an_algebra_as_large_as_its_space_takes_the_peel(peels):
    # doubled M_2 has linear dimension 4 on C^4 but is not abelian
    a = doubled_algebra(2)
    assert a.linear_dim == a.dim == 4 and a.atoms is None
    x, y = pu.random_ppu(a, 3, 1, 5), pu.random_ppu(a, 2, 0, 6)
    eq = pu.tolerances().eq
    assert pu.meet(x, y).op.distance(reference_meet(x, y)) <= eq
    assert pu.join(x, y).op.distance(reference_join(x, y)) <= eq
    assert len(pu.factor_positive(y).factors) == len(reference_factors(y))
    assert len(peels) == 3


NAN = np.full((2, 2), np.nan)


class Index:
    """An integer key unequal to every other, so two of them can name one exponent."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ({0: np.eye(2), 1: np.eye(3)}, "coefficient of wrong shape"),
        ({0: np.ones(2)}, "expected a 2-d matrix"),
        ({Index(0): np.eye(2), Index(0): np.eye(2)}, "duplicate exponent"),
        ({0: np.eye(2), 1: NAN}, "matrix has non-finite entries"),
        ({0: [[np.inf, 0.0], [0.0, 1.0]]}, "matrix has non-finite entries"),
        ({0: 1e200 * np.eye(2)}, "coefficient norm overflows"),
        # the first coefficient at fault names the error
        ({0: NAN, 1: np.eye(3)}, "matrix has non-finite entries"),
        ({0: np.eye(3), 1: NAN}, "coefficient of wrong shape"),
        ({Index(1): np.eye(2), Index(1): NAN}, "matrix has non-finite entries"),
        ({Index(1): np.eye(2), Index(1): np.eye(2), 2: NAN}, "duplicate exponent"),
    ],
)
def test_input_errors_match_the_reference(coeffs, message):
    assert built(LaurentOp, 2, coeffs) == built(ReferenceLaurent, 2, coeffs)
    with pytest.raises(InputError, match=message), np.errstate(over="ignore"):
        LaurentOp(2, coeffs)
