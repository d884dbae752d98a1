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

Division runs on the integer numerators. Where the divisor's leading
coefficient does not divide the remainder's, the remainder and the quotient
so far are scaled by the least integer that makes it divide, and the
quotient is divided by the product of those integers at the end.
"""

from __future__ import annotations

from math import gcd

from .poly import NotDivisible, Polynomial, _add_into, _layout, monic


def divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises NotDivisible if the division has a remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    f._check(g)
    universe = f.universe
    divides = _layout(universe).divides
    gt = g._t
    gk = max(gt)
    gc = gt[gk]
    if len(gt) == 1:
        # each term of f is its own leading term once the larger ones are gone
        ft = f._t
        quotient = {}
        for k in sorted(ft, reverse=True):
            if not divides(gk, k):
                raise NotDivisible("leading monomial not divisible")
            quotient[k - gk] = ft[k]
        return Polynomial._make(universe, quotient, f.den)._over(gc).scale(g.den)
    rem = dict(f._t)
    quotient = {}
    scale = 1  # rem and quotient are scale times the remainder and quotient
    while rem:
        rk = max(rem)
        if not divides(gk, rk):
            raise NotDivisible("leading monomial not divisible")
        m = gcd(rem[rk].real, rem[rk].imag, gc.real, gc.imag)
        a, qc = gc // m, rem[rk] // m
        if a == -1:
            a, qc = 1, -qc
        if a != 1:  # a * rem has a leading coefficient that gc divides
            rem = {k: c * a for k, c in rem.items()}
            quotient = {k: c * a for k, c in quotient.items()}
            scale = scale * a
        quotient[rk - gk] = qc
        _add_into(rem, -qc, rk - gk, gt)
    return Polynomial._make(universe, quotient, f.den)._over(scale).scale(g.den)


# -- univariate view helpers -------------------------------------------


def _from_coeffs(coeffs: dict[int, Polynomial], idx: int, universe) -> Polynomial:
    x = Polynomial.variable(universe, universe.names[idx])
    return sum((c * x ** d for d, c in coeffs.items()), Polynomial.zero(universe))


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
    if len(a) == 1 or len(b) == 1:
        least = tuple(map(min, a.monomial_content(), b.monomial_content()))
        return Polynomial._make(universe, {_layout(universe).pack(least): 1})
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
        if delta == 1:
            h = g
        elif delta > 1:
            h = divexact(g ** delta, h ** (delta - 1))
    return monic(content * result)
