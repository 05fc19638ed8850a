"""Exact Bergman norms of piecewise-linear weights, summed over the cone fan.

A weight u = max_J <J, log|z|> is linear on each cone of its fan, so the
norm c_alpha is a sum of simplicial cone integrals |det V| / prod(-<d, v>).
The fan comes from the double-description pass of `poly_geom._diagram`;
the checks here compare it with the two-dimensional tie sweep kept in
`tests/exact_oracles.py`, with a tiling identity in n = 1..4, with the
factorization of a weight that ignores a coordinate, and with a golden
file of bases.  The integer cone sums of `_exact_norms` are checked
against the ray-by-ray `Fraction` sum of `exact_oracles.cone_integral`
in n = 3 and 4, and its array pass against the per-exponent loop
`exact_oracles.loop_exact_norms` it replaced, on both sides of its int64
bound.
"""

import json
import math
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from exact_oracles import cone_integral, loop_exact_norms, sweep_cones, walk_pl_generators
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelong.cli import _expr_record
from lelong.demailly import _exact_norms, _ray_forms, basis_norms
from lelong.poly_geom import _pl_cones
from lelong.weights import CoordLog, MaxOf, PolyLog, Scale

GOLDEN = Path(__file__).parent / "golden" / "pl_bases.json"


def _mono(*J, c=1):
    return PolyLog.of([(c, J)])


_L1, _L2 = CoordLog(1), CoordLog(2)

# (weight, dimension): coordinate logs, Fraction scales, unimodular
# monomials, the constant weight, duplicated and dominated generators
GOLDEN_WEIGHTS = [
    (_L1, 1),
    (Scale(F(1, 2), _L1), 1),
    (Scale(F(2, 3), _L1), 1),
    (Scale(F(3), _L1), 1),
    (Scale(F(7, 4), _L1), 1),
    (_mono(0), 1),
    (_mono(2, c=-1), 1),
    (_mono(3, c=1j), 1),
    (MaxOf.of(_L1, Scale(F(2), _L1)), 1),
    (MaxOf.of(_L1, _L1), 1),
    (Scale(F(1, 2), MaxOf.of(Scale(F(3), _L1), _mono(2))), 1),
    (MaxOf.of(_mono(0), _L1), 1),
    (Scale(F(3, 2), _mono(0)), 1),
    (Scale(F(5, 3), Scale(F(3, 5), _L1)), 1),
    (_L1, 2),
    (_L2, 2),
    (MaxOf.of(_L1, _L2), 2),
    (MaxOf.of(Scale(F(2), _L1), Scale(F(3), _L2)), 2),
    (MaxOf.of(Scale(F(2), _L1), Scale(F(3, 2), _L2)), 2),
    (MaxOf.of(Scale(F(3), _L1), _mono(1, 1), Scale(F(3), _L2)), 2),
    (_mono(1, 1), 2),
    (_mono(2, 1, c=-1), 2),
    (Scale(F(1, 2), _mono(1, 3)), 2),
    (_mono(0, 0), 2),
    (MaxOf.of(_mono(0, 0), _L1), 2),
    (MaxOf.of(_L1, _L1, _L2), 2),
    (MaxOf.of(Scale(F(2), _L1), _mono(2, 0, c=1j), _L2), 2),
    (MaxOf.of(Scale(F(2), _L1), Scale(F(2), _L2), _mono(1, 1)), 2),
    (MaxOf.of(Scale(F(2), _L1), Scale(F(2), _L2), _mono(2, 2)), 2),
    (MaxOf.of(_L1, _mono(1, 1)), 2),
    (MaxOf.of(_mono(1, 1), _mono(0, 2)), 2),
    (MaxOf.of(Scale(F(4), _L1), Scale(F(5, 2), _L2)), 2),
    (MaxOf.of(Scale(F(1, 2), _mono(1, 4)), Scale(F(1, 3), _mono(3, 1)), Scale(F(3, 2), _L1),
              Scale(F(5, 2), _L2)), 2),
    (Scale(F(1, 2), MaxOf.of(_mono(2, 1), _mono(1, 2))), 2),
    (MaxOf.of(_mono(3, 0), _mono(2, 1), _mono(0, 3)), 2),
    (MaxOf.of(Scale(F(3, 2), _L1), _mono(1, 1), Scale(F(2), _L2)), 2),
    (Scale(F(2, 3), MaxOf.of(_mono(1, 0), _mono(0, 2), _mono(1, 1))), 2),
    (MaxOf.of(_mono(1, 2), _mono(2, 0)), 2),
    (MaxOf.of(Scale(F(1, 3), _mono(0, 1)), _mono(1, 0, c=-1)), 2),
    (MaxOf.of(_mono(0, 0), Scale(F(2), _L1), Scale(F(2), _L2)), 2),
]


def _norms(gens, m: int, cap: int, n: int) -> dict:
    """alpha -> c_alpha / (2 pi)^n as a Fraction, for the admissible alpha."""
    alphas, num, den = _exact_norms(_ray_forms(_pl_cones(gens, n)), m, cap, n)
    return {tuple(a): F(p, q) for a, p, q in zip(alphas.tolist(), num.tolist(), den.tolist())}


def pl_bases() -> list[dict]:
    """Every golden weight at m = 1..3, with the default cap and with cap 4.

    Norms are written with `float.hex`, so the comparison is bit for bit.
    `GOLDEN.write_text(_golden_text(pl_bases()))` rewrites the file, for a
    change that means to move a norm.
    """
    out = []
    for w, n in GOLDEN_WEIGHTS:
        for m in (1, 2, 3):
            for cap in (None, 4):
                B = basis_norms(w, m, cap, dim=n)
                out.append({
                    "weight": _expr_record(w),
                    "dim": n,
                    "m": m,
                    "cap_given": cap,
                    "degree_cap": B.degree_cap,
                    "entries": [[list(a), c.hex()] for a, c in B.entries],
                })
    return out


def _golden_text(records: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n]\n"


def test_pl_bases_match_golden():
    assert _golden_text(pl_bases()) == GOLDEN.read_text()


# ---------------------------------------------------------------------------
# the fan against the tie sweep, and its tiling of the orthant

_generator = st.builds(
    lambda a, b, q: (F(a, q), F(b, q)),
    st.integers(0, 8), st.integers(0, 8), st.sampled_from((1, 2, 3)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(gens=st.lists(_generator, min_size=1, max_size=5), n=st.integers(1, 2), m=st.integers(1, 4))
@example(gens=[(F(0), F(0)), (F(2), F(1))], n=2, m=1)  # a zero generator: u = 0
@example(gens=[(F(1), F(2)), (F(3), F(0)), (F(1), F(2))], n=2, m=2)  # a duplicate
@example(gens=[(F(1), F(0))], n=2, m=3)  # log|z1|: no generator on axis 2
@example(gens=[(F(3), F(0)), (F(1), F(1)), (F(0), F(3))], n=2, m=1)  # kink inside the quadrant
def test_cone_sums_match_tie_sweep(gens, n, m):
    gens = [J[:n] for J in gens]
    cap = 8
    got = _norms(gens, m, cap, n)
    cones = sweep_cones(gens, n)
    for alpha in product(range(cap + 1), repeat=n):
        assert got.get(alpha) == cone_integral(cones, m, alpha), alpha


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=4, max_size=4), st.sampled_from((1, 2))),
        min_size=1, max_size=5,
    ),
    n=st.integers(1, 4),
)
@example(rows=[([0, 0, 0, 0], 1), ([1, 2, 0, 1], 1)], n=3)
@example(rows=[([1, 0, 0, 0], 1)], n=4)
@example(rows=[([2, 0, 0, 0], 1), ([1, 1, 1, 0], 1), ([0, 2, 0, 0], 1), ([0, 0, 2, 0], 1)], n=3)
def test_cones_tile_the_orthant(rows, n):
    # the integral of exp(sum(s)) over s <= 0 is 1, and each simplicial
    # cone V contributes |det V| / prod(-sum(v)): the cones must cover the
    # orthant once, each with a generator that attains the max on all its
    # rays, at an integer (the integer Bergman sums rest on that)
    gens = [tuple(F(x, q) for x in J[:n]) for J, q in rows]
    total = F(0)
    for rays, J, det in _pl_cones(gens, n):
        assert det > 0
        for v in rays:
            top = sum(j * x for j, x in zip(J, v))
            assert top == max(sum(k * x for k, x in zip(K, v)) for K in gens)
            assert F(top).denominator == 1
        total += F(det, math.prod(-sum(v) for v in rays))
    assert total == 1


# ---------------------------------------------------------------------------
# three and four variables

_generator_4d = st.builds(
    lambda xs, q: tuple(F(x, q) for x in xs),
    st.lists(st.integers(0, 5), min_size=4, max_size=4), st.sampled_from((1, 2, 3)),
)

_STEEP_3 = [(F(3, 2), F(0), F(0)), (F(0), F(5, 3), F(0)), (F(0), F(0), F(2))]
_STEEP_4 = [J + (F(0),) for J in _STEEP_3] + [(F(0), F(0), F(0), F(5, 3))]
_KINKED_3 = _STEEP_3 + [(F(1, 2), F(2, 3), F(1, 3))]
_KINKED_4 = _STEEP_4 + [(F(1, 2), F(2, 3), F(1, 2), F(1, 3))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gens=st.lists(_generator_4d, min_size=1, max_size=5), n=st.integers(3, 4), m=st.integers(1, 3))
@example(gens=_STEEP_3, n=3, m=2)  # slopes 3/2, 5/3, 2: small alpha diverge
@example(gens=_STEEP_4, n=4, m=3)
@example(gens=_KINKED_3, n=3, m=3)  # fractional slopes with a kink inside the orthant
@example(gens=_KINKED_4, n=4, m=3)
@example(gens=[(F(0),) * 4, (F(1), F(2), F(0), F(1))], n=3, m=1)  # a zero generator
@example(gens=[(F(0),) * 4] + _STEEP_4, n=4, m=1)  # a zero generator: u = 0 on the orthant
@example(gens=[(F(1), F(0), F(0), F(0))], n=4, m=2)  # log|z1|: no generator on axes 2..4
def test_integer_cone_sums_match_fraction_oracle(gens, n, m):
    gens = [J[:n] for J in gens]
    cap = 3 if n == 3 else 2
    cones = _pl_cones(gens, n)
    got = _norms(gens, m, cap, n)
    for alpha in product(range(cap + 1), repeat=n):
        assert got.get(alpha) == cone_integral(cones, m, alpha), alpha


_STEEP_3D = MaxOf.of(Scale(F(3, 2), _L1), Scale(F(5, 3), _L2), Scale(F(2), CoordLog(3)))


@pytest.mark.parametrize("gens, n, m, cap, weight", [
    (_STEEP_3, 3, 2, 4, _STEEP_3D), (_STEEP_4, 4, 3, 3, None), (_KINKED_3, 3, 3, 4, None),
    (_KINKED_4, 4, 3, 3, None),
])
def test_integer_cone_sums_cover_divergent_and_admissible_alpha(gens, n, m, cap, weight):
    # the pinned fractional-slope weights have both kinds of alpha, and a
    # basis holds the correctly rounded floats of the oracle sums
    cones = _pl_cones(gens, n)
    want = {a: c for a in product(range(cap + 1), repeat=n) if (c := cone_integral(cones, m, a)) is not None}
    assert 0 < len(want) < (cap + 1) ** n
    assert _norms(gens, m, cap, n) == want
    if weight is not None:
        basis = basis_norms(weight, m, cap, dim=n)
        assert basis.entries == tuple((a, (2 * math.pi) ** n * float(c)) for a, c in want.items())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(gens=st.lists(_generator, min_size=1, max_size=4), m=st.integers(1, 3), free=st.integers(0, 2))
@example(gens=[(F(4), F(0)), (F(0), F(5, 2))], m=1, free=2)
@example(gens=[(F(4), F(0)), (F(0), F(5, 2))], m=2, free=2)
@example(gens=[(F(4), F(0)), (F(0), F(5, 2))], m=3, free=2)
def test_weight_free_of_one_coordinate_factorizes(gens, m, free):
    # the integral over the free log-radius s splits off: c_alpha picks up
    # 2 pi / (2 alpha_free + 2), exactly
    cap = 6
    lifted = [J[:free] + (F(0),) + J[free:] for J in gens]
    plane = _norms(gens, m, cap, 2)
    space = _norms(lifted, m, cap, 3)
    for alpha in product(range(cap + 1), repeat=3):
        rest = alpha[:free] + alpha[free + 1:]
        want = plane[rest] / (2 * alpha[free] + 2) if rest in plane else None
        assert space.get(alpha) == want, alpha


# ---------------------------------------------------------------------------
# float scale factors are exact dyadic rationals


@pytest.mark.parametrize("a, b", [(2.0, 1.5), (0.75, 2.5), (0.1, 1.0)])
def test_float_scales_give_the_fraction_basis(a, b):
    for m in (1, 2, 3):
        for cap in (None, 5):
            flt = basis_norms(MaxOf.of(Scale(a, _L1), Scale(b, _L2)), m, cap, dim=2)
            exact = basis_norms(MaxOf.of(Scale(F(a), _L1), Scale(F(b), _L2)), m, cap, dim=2)
            assert flt.degree_cap == exact.degree_cap
            assert flt.entries == exact.entries


# ---------------------------------------------------------------------------
# the array pass against the per-exponent loop it replaced


def _assert_pass_matches_loop(u, m: int, cap: int, n: int):
    """The basis against the loop's (alpha, (2 pi)^n (num / den)): same admissible alpha, same bits."""
    want = loop_exact_norms(_pl_cones(walk_pl_generators(u, n), n), m, cap, n)
    basis = basis_norms(u, m, cap, dim=n)
    assert [(a, c.hex()) for a, c in basis.entries] == [(a, ((2.0 * math.pi) ** n * (p / q)).hex())
                                                         for a, p, q in want]
    assert basis.exponents.tolist() == [list(map(float, a)) for a, _, _ in want]
    assert basis.neg_log_c.tolist() == [-math.log(c) for _, c in basis.entries]


def _pl_weights(n: int):
    leaves = st.one_of(
        st.builds(CoordLog, st.integers(1, n)),
        st.builds(lambda c, J: PolyLog.of([(c, J)]), st.sampled_from((1, -1, 1j)),
                  st.tuples(*[st.integers(0, 3)] * n)),
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Scale, st.sampled_from((F(1, 2), F(2, 3), F(3, 2), F(2), F(5, 3), 0.75)), kids),
        st.lists(kids, min_size=2, max_size=3).map(lambda c: MaxOf(tuple(c))),
    ), max_leaves=4)


@st.composite
def _pl_cases(draw):
    n = draw(st.integers(1, 3))
    return draw(_pl_weights(n)), draw(st.integers(1, 6)), draw(st.integers(0, (12, 8, 4)[n - 1])), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_pl_cases())
def test_array_pass_matches_the_loop(case):
    _assert_pass_matches_loop(*case)


_TIERED_3D = MaxOf.of(_L1, Scale(F(2), _L2), Scale(F(3), CoordLog(3)), _mono(1, 1, 1))
# m J is of order 1 at m = 2^40, so alpha <= 8 are admissible; the rays
# have coordinates near 2^61 and the constants m a + b pass 2^63
_TINY_SLOPES = MaxOf.of(Scale(F(2**23 + 1, 2**61), _L1), Scale(F(2**23 + 1, 2**61), _L2),
                        Scale(F(1, 2**39), _mono(1, 1)))


@pytest.mark.parametrize("u, m, cap, n, dtype, bits", [
    (_TIERED_3D, 2, 9, 3, np.int64, (2, 49)),  # the bound holds
    (_TIERED_3D, 2, 13, 3, object, (2, 54)),  # den past 2^53: float64 would round it
    (_TIERED_3D, 2, 30, 3, object, (2, 64)),  # den past 2^63: int64 would wrap
    (_TINY_SLOPES, 2**40, 8, 2, object, (64, 272)),  # the constants pass 2^63 too
])
def test_both_sides_of_the_int64_bound_match_the_loop(u, m, cap, n, dtype, bits):
    # bits: the bit lengths of the largest constant |m a + b| and of the largest den
    forms = _ray_forms(_pl_cones(walk_pl_generators(u, n), n))
    _, num, den = _exact_norms(forms, m, cap, n)
    assert num.dtype == dtype and den.dtype == dtype
    W, a, b, _ = forms
    const = max(abs(m * x + y) for x, y in zip(a, b))
    assert (const.bit_length(), max(den.tolist()).bit_length()) == bits
    _assert_pass_matches_loop(u, m, cap, n)
