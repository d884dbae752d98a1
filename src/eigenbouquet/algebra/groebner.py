"""Buchberger's algorithm, specialized for certified 1-membership.

The single consumer is principality certification: does the weak-transform
ideal contain 1? We run Buchberger to a reduced graded-lex basis under a
step and degree budget. A positive answer comes with an explicit
combination sum(cofactor_k * gen_k) = 1, checked by expansion before it is
returned. Cofactors are built only for that certificate: the run carries
none, and only when it reaches a constant does it repeat the same
deterministic steps with cofactors tracked. Budget overruns surface as
"inconclusive", never as a wrong answer.

The run is fraction-free: a division step scales by the least integer that
cancels the leading term, S-polynomials are formed over integers, and each
basis element is an integer multiple of the rational one, with its
cofactors scaled alike. Leading terms, step counts, the monic reduced basis
and the certificate are those of rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .poly import Polynomial, _add_into, _layout, monic

DEFAULT_STEP_BUDGET = 10_000
DEFAULT_DEGREE_CAP = 40


@dataclass
class MembershipResult:
    status: str  # "yes" | "no" | "inconclusive"
    certificate: list[Polynomial] | None = None
    basis: list[Polynomial] = field(default_factory=list)
    reductions: int = 0

    @property
    def contains_one(self) -> bool:
        return self.status == "yes"


class _Tracked:
    """An integer polynomial, its leading (key, numerator) (None for zero)
    and its cofactors over the generators (None unless a certificate)."""

    __slots__ = ("poly", "cofactors", "lead")

    def __init__(self, poly: Polynomial, cofactors: list[Polynomial] | None):
        self.poly = poly
        self.cofactors = cofactors
        self.lead = (k := max(poly._t), poly._t[k]) if poly._t else None


def _reduce(f: _Tracked, basis: list[_Tracked], budget: list[int]) -> _Tracked:
    """Full multivariate division of f by the basis, cofactors maintained
    when f carries them, fraction-free; the remainder comes out primitive.
    The remainder and the working polynomial are dicts changed in place, in
    the term order the polynomial arithmetic gives."""
    universe = f.poly.universe
    guard = _layout(universe).guard
    rem: dict = {}
    work = dict(f.poly._t)
    cof = None if f.cofactors is None else list(f.cofactors)
    while work:
        budget[0] -= 1
        if budget[0] < 0:
            raise _Budget()
        le = max(work)
        lc = work[le]
        hit = next((g for g in basis if ((le | guard) - g.lead[0]) & guard == guard), None)
        if hit is None:
            rem[le] = lc
            del work[le]
            continue
        ge, gc = hit.lead
        m = gcd(lc.real, lc.imag, gc.real, gc.imag)
        a, q = gc // m, lc // m
        if a == -1:
            a, q = 1, -q
        if a != 1:  # a * work - q * x^shift * hit cancels the leading term
            work = {e: c * a for e, c in work.items()}
            rem = {e: c * a for e, c in rem.items()}
        shift = le - ge
        _add_into(work, -q, shift, hit.poly._t)
        if cof is not None:
            factor = Polynomial._make(universe, {shift: q})
            for k, ck in enumerate(hit.cofactors):
                if a != 1:
                    cof[k] = cof[k].scale(a)
                if not ck.is_zero():
                    cof[k] = cof[k] - factor * ck
    content = gcd(*(part for c in rem.values() for part in (c.real, c.imag))) or 1
    if cof is not None:
        cof = [c._over(content) for c in cof]
    return _Tracked(Polynomial._make(universe, rem, content), cof)


class _Budget(Exception):
    pass


def ideal_contains_one(
    gens: list[Polynomial],
    step_budget: int = DEFAULT_STEP_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> MembershipResult:
    """Certified test of 1-membership for an ideal over Q or Q(i).

    "yes" certifies the generators have empty complex (hence real) common
    zero set. "no" is a definite negative for 1-membership; a real common
    zero may or may not exist and is probed elsewhere by sampling.
    """
    gens = [g for g in gens]
    if not gens:
        raise ValueError("empty generator list")
    result = _buchberger(gens, step_budget, degree_cap, track=False)
    if not result.contains_one:
        return result
    # the same steps again, carrying cofactors to build the certificate
    result = _buchberger(gens, step_budget, degree_cap, track=True)
    _check_certificate(gens, result)
    return result


def _check_certificate(gens: list[Polynomial], result: MembershipResult):
    """Raise unless result is a "yes" whose certificate expands to 1."""
    if not result.contains_one or result.certificate is None:
        raise ArithmeticError(f"cofactor rerun ended {result.status!r}, not 'yes'")
    terms = zip(result.certificate, gens, strict=True)
    total = sum((c * g for c, g in terms), Polynomial.zero(gens[0].universe))
    if total != Polynomial.constant(total.universe, 1):
        raise ArithmeticError("Buchberger certificate does not expand to 1")


def _buchberger(
    gens: list[Polynomial], step_budget: int, degree_cap: int, track: bool
) -> MembershipResult:
    """One deterministic Buchberger run; cofactors only when track is set."""
    universe = gens[0].universe
    lay = _layout(universe)
    one = Polynomial.constant(universe, 1)

    def certify(item: _Tracked, reductions: int = 0) -> MembershipResult:
        cert = None
        if item.cofactors is not None:
            cert = [p._over(item.lead[1]) for p in item.cofactors]
        return MembershipResult("yes", cert, [one], reductions)

    tracked: list[_Tracked] = []
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        cof = None
        if track:  # cofactors of g times its denominator, as the run holds g
            cof = [Polynomial.zero(universe) for _ in gens]
            cof[k] = Polynomial.constant(universe, g.den)
        item = _Tracked(Polynomial._make(universe, g._t), cof)
        if g.is_constant():
            return certify(item)
        tracked.append(item)
    if not tracked:
        return MembershipResult("no", None, [])

    budget = [step_budget]
    basis: list[_Tracked] = []
    for item in tracked:
        try:
            red = _reduce(item, basis, budget)
        except _Budget:
            return MembershipResult("inconclusive", None, [])
        if red.poly.is_zero():
            continue
        if red.poly.is_constant():
            return certify(red)
        basis.append(red)

    pairs: dict[tuple[int, int], int] = {}  # (i, j) -> lcm of their leading monomials

    def pair_with(j: int):
        for i in range(j):
            lead_i, lead_j = lay.unpack(basis[i].lead[0]), lay.unpack(basis[j].lead[0])
            pairs[i, j] = lay.pack(tuple(map(max, lead_i, lead_j)))

    for j in range(len(basis)):
        pair_with(j)
    reductions = 0
    try:
        while pairs:
            # normal strategy: smallest lcm of leading monomials first, ties by pair
            i, j = min(pairs, key=lambda pr: (pairs[pr], pr))
            lcm = pairs.pop((i, j))
            fi, fj = basis[i], basis[j]
            (ei, ci), (ej, cj) = fi.lead, fj.lead
            if lcm == ei + ej:
                continue  # coprime leading monomials: s-poly reduces to zero
            if lcm >> lay.top > degree_cap:
                return MembershipResult("inconclusive", None, [])
            m = gcd(ci.real, ci.imag, cj.real, cj.imag)
            mi = Polynomial._make(universe, {lcm - ei: cj // m})
            mj = Polynomial._make(universe, {lcm - ej: ci // m})
            spoly = mi * fi.poly - mj * fj.poly
            cof = None
            if track:
                cof = [mi * a - mj * b for a, b in zip(fi.cofactors, fj.cofactors)]
            reductions += 1
            red = _reduce(_Tracked(spoly, cof), basis, budget)
            if red.poly.is_zero():
                continue
            if red.poly.is_constant():
                return certify(red, reductions)
            if red.poly.total_degree() > degree_cap:
                return MembershipResult("inconclusive", None, [])
            basis.append(red)
            pair_with(len(basis) - 1)
    except _Budget:
        return MembershipResult("inconclusive", None, [])

    # every basis element is nonconstant and keeps its leading term when
    # inter-reduced, so the reduced basis is never {1}
    reduced = _reduced_basis(basis, budget)
    if reduced is None:
        return MembershipResult("inconclusive", None, [])
    return MembershipResult("no", None, reduced, reductions)


def _reduced_basis(basis: list[_Tracked], budget: list[int]) -> list[Polynomial] | None:
    # minimalize: drop polynomials whose leading monomial another one divides
    divides = _layout(basis[0].poly.universe).divides
    keep: list[_Tracked] = []
    for k, item in enumerate(basis):
        if not any(divides(o.lead[0], item.lead[0]) for o in keep + basis[k + 1 :]):
            keep.append(item)
    # inter-reduce and make monic
    out: list[Polynomial] = []
    for k, item in enumerate(keep):
        rest = [_Tracked(q.poly, None) for idx, q in enumerate(keep) if idx != k]
        try:
            red = _reduce(_Tracked(item.poly, None), rest, budget)
        except _Budget:
            return None
        if red.poly.is_zero():
            continue
        out.append(monic(red.poly))
    out.sort(key=lambda q: max(q._t))
    return out
