"""One walk from a weight tree to its generators, against the two it replaced.

`weights._generators` serves both `indicator_support` and the exact route
of `demailly`.  `walk_pl_generators` and `walk_indicator_support` in
`exact_oracles` are the two separate walks that came before it.
"""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelong import demailly
from lelong.demailly import ApproxBasis, lelong_bounds_check
from lelong.poly_geom import ExponentSet
from lelong.weights import CoordLog, MaxOf, NegPowLog, PolyLog, Scale, indicator_support

from exact_oracles import walk_indicator_support, walk_pl_generators

# |c| = 1 for the first four, and for 0.6 + 0.8i up to rounding
_coefficients = st.sampled_from([1, -1, 1j, -1j, complex(0.6, 0.8), 2, 0.5, 3 - 4j])
_factors = st.one_of(
    st.builds(F, st.integers(1, 6), st.integers(1, 4)),
    st.sampled_from([0.5, 0.1, 1.5, 3.0, 2 / 3, 1.0]),
)


def _polylogs(d):
    exponents = st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3, unique=True)
    return exponents.flatmap(lambda Js: st.lists(_coefficients, min_size=len(Js), max_size=len(Js)).map(
        lambda cs: PolyLog.of(list(zip(cs, Js)))))


def _trees(n):
    leaves = st.one_of(
        st.integers(1, n).flatmap(_polylogs),
        st.integers(1, n).map(CoordLog),
        st.builds(NegPowLog, st.integers(1, n), st.sampled_from([F(1, 2), F(1, 3), F(1)])),
        st.just(ApproxBasis(m=1, degree_cap=0, entries=(), dimension=1)),  # evaluable outside the node algebra
    )
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: MaxOf(tuple(cs))),
        st.builds(Scale, _factors, kids),
    ), max_leaves=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _trees(n))))
def test_one_walk_gives_what_the_two_walks_gave(case):
    n, w = case
    assert demailly._pl_generators(w, n) == walk_pl_generators(w, n)
    try:
        before = walk_indicator_support(w, n)
    except (TypeError, ValueError) as exc:
        if str(exc) != "indicator support needs a rational scale factor":
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                indicator_support(w, n)
        return
    assert indicator_support(w, n) == before


def test_bounds_check_reads_a_float_factor_as_its_rational():
    phi = ExponentSet.of([(1, 0), (0, 1)])
    half, float_half = (lelong_bounds_check(MaxOf.of(Scale(f, CoordLog(1)), CoordLog(2)), phi, [1, 2])
                        for f in (F(1, 2), 0.5))
    assert repr(float_half) == repr(half)
    assert float_half.exact == F(1, 2)
