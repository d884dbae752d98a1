"""Properties of the packed monomial keys, driven by hypothesis.

A key packs an exponent tuple into one int (``poly._Layout``). On random
tuples, small and up to the exponent bound, the key must order as
``grlex_key`` does, unpack to the tuple, add to the product's key and test
divisibility as the tuple test does. Seeded (``derandomize=True``);
hypothesis is test-only and the module is skipped where it is missing.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eigenbouquet.algebra.poly import EXP_BITS, _Layout  # noqa: E402
from reference import _ref_divides_mono, grlex_key  # noqa: E402

SEEDED = settings(derandomize=True, deadline=None, max_examples=200, database=None)
TOP = (1 << EXP_BITS) - 1  # the largest total degree a key holds


def exponents(n: int):
    """n exponents, each small or anywhere below the bound, of total degree at most TOP."""
    one = st.one_of(st.integers(0, 3), st.integers(0, TOP))
    return st.tuples(*[one] * n).filter(lambda e: sum(e) <= TOP)


def two_tuples():
    return st.integers(1, 5).flatmap(lambda n: st.tuples(exponents(n), exponents(n)))


@SEEDED
@given(two_tuples())
def test_int_order_is_grlex_order(pair):
    a, b = pair
    lay = _Layout(len(a))
    ka, kb = lay.pack(a), lay.pack(b)
    assert (ka < kb) == (grlex_key(a) < grlex_key(b))
    assert (ka == kb) == (a == b)


@SEEDED
@given(two_tuples())
def test_pack_then_unpack_returns_the_tuple(pair):
    for e in pair:
        assert _Layout(len(e)).unpack(_Layout(len(e)).pack(e)) == e


@SEEDED
@given(two_tuples())
def test_adding_keys_multiplies_monomials(pair):
    a, b = pair
    product = tuple(x + y for x, y in zip(a, b))
    assume(sum(product) <= TOP)
    lay = _Layout(len(a))
    assert lay.pack(a) + lay.pack(b) == lay.pack(product)


@SEEDED
@given(two_tuples(), st.booleans())
def test_packed_divisibility_matches_tuples(pair, multiple):
    a, b = pair
    if multiple:  # make b a multiple of a when the bound allows, so both answers occur
        b = tuple(x + y for x, y in zip(a, b))
        assume(sum(b) <= TOP)
    lay = _Layout(len(a))
    assert lay.divides(lay.pack(a), lay.pack(b)) == _ref_divides_mono(a, b)
    assert lay.divides(lay.pack(b), lay.pack(a)) == _ref_divides_mono(b, a)
