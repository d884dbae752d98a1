"""Multivariate gcd and exact division.

The gcd uses primitive-part recursion with a subresultant polynomial
remainder sequence on the last occurring variable, which is plenty at desk
scale. Outputs are normalized monic under graded lex so that repeated runs
are bit-identical.

Monomials take a shortcut on both sides. A monomial's divisors are the
monomials under it, so its gcd with any polynomial is the monomial of the
column-wise least exponents (1 for a constant); the content recursion meets
it whenever a running gcd has become a monomial. Division by a monomial
shifts every term, in the order the general loop would produce them.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import NotDivisible, Polynomial, monic


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises NotDivisible if the division has a remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    f._check(g)
    universe = f.universe
    ge, gc = g.leading()
    quotient: dict = {}
    if len(g.terms) == 1:
        # each term of f is its own leading term once the larger ones are gone
        for re_, rc in f.sorted_terms():
            qe = tuple(a - b for a, b in zip(re_, ge))
            if any(x < 0 for x in qe):
                raise NotDivisible("leading monomial not divisible")
            qc = rc / gc
            if qc * gc != rc:
                raise NotDivisible("leading term does not cancel")
            quotient[qe] = qc
        return Polynomial(universe, quotient)
    rem = f
    last = None
    while rem.terms:
        re_, rc = rem.leading()
        if re_ == last:
            # an inexact coefficient division left the leading term in place
            raise NotDivisible("leading term does not cancel")
        last = re_
        qe = tuple(a - b for a, b in zip(re_, ge))
        if any(x < 0 for x in qe):
            raise NotDivisible("leading monomial not divisible")
        qc = rc / gc
        quotient[qe] = qc
        rem = rem - Polynomial(universe, {qe: qc}) * g
    return Polynomial(universe, quotient)


# -- univariate view helpers -------------------------------------------


def _from_coeffs(coeffs: dict[int, Polynomial], idx: int, universe) -> Polynomial:
    total = Polynomial.zero(universe)
    for d, c in coeffs.items():
        if c.is_zero():
            continue
        shift = {}
        for e, k in c.terms.items():
            shift[e[:idx] + (e[idx] + d,) + e[idx + 1 :]] = k
        total = total + Polynomial(universe, shift)
    return total


def _deg(coeffs: dict[int, Polynomial]) -> int:
    return max(coeffs) if coeffs else -1


def _content_in(p: Polynomial, idx: int) -> Polynomial:
    coeffs = p.coeffs_in(idx)
    content = Polynomial.zero(p.universe)
    for c in coeffs.values():
        content = gcd_multivariate(content, c)
    return content


def _pseudo_rem(a: dict, b: dict, universe) -> dict:
    """Pseudo-remainder of a by b, both univariate views in the same variable."""
    da, db = _deg(a), _deg(b)
    lb = b[db]
    r = dict(a)
    e = da - db + 1
    while r and _deg(r) >= db:
        dr = _deg(r)
        lr = r[dr]
        new: dict[int, Polynomial] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in b.items():
            shifted = d + dr - db
            t = lr * c
            s = new.get(shifted)
            new[shifted] = -t if s is None else s - t
        r = {d: c for d, c in new.items() if not c.is_zero()}
        e -= 1
    for _ in range(e):
        r = {d: c * lb for d, c in r.items()}
    return r


def gcd_multivariate(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd dividing both arguments with exact quotients.

    gcd(p, 0) is the normalized p. A single-term input gives the monomial
    of the least exponents of both; constants are units of the coefficient
    field, so any nonzero constant input forces gcd 1.
    """
    if a.is_zero():
        return monic(b)
    if b.is_zero():
        return monic(a)
    a._check(b)
    universe = a.universe
    if len(a.terms) == 1 or len(b.terms) == 1:
        least = tuple(map(min, zip(*a.terms, *b.terms)))
        return Polynomial(universe, {least: Fraction(1)})
    sup = a.support_vars() | b.support_vars()
    # recurse on the last occurring variable in universe order
    idx = max(universe.index(name) for name in sup)
    ca = _content_in(a, idx)
    cb = _content_in(b, idx)
    content = gcd_multivariate(ca, cb)
    if a.degree_in(universe.names[idx]) == 0 or b.degree_in(universe.names[idx]) == 0:
        return monic(content)
    pa = divexact(a, ca).coeffs_in(idx)
    pb = divexact(b, cb).coeffs_in(idx)
    if _deg(pa) < _deg(pb):
        pa, pb = pb, pa
    one = Polynomial.constant(universe, 1)
    g = one
    h = one
    while True:
        delta = _deg(pa) - _deg(pb)
        r = _pseudo_rem(pa, pb, universe)
        if not r:
            result = _from_coeffs(pb, idx, universe)
            result = divexact(result, _content_in(result, idx))
            break
        if _deg(r) == 0:
            result = one
            break
        pa = pb
        denom = g * h ** delta
        pb = {d: divexact(c, denom) for d, c in r.items()}
        g = pa[_deg(pa)]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = divexact(g ** delta, h ** (delta - 1))
    return monic(content * result)
