"""Buchberger's algorithm, specialized for certified 1-membership.

The single consumer is principality certification: does the weak-transform
ideal contain 1? We run Buchberger to a reduced graded-lex basis under a
step and degree budget. A positive answer comes with an explicit
combination sum(cofactor_k * gen_k) = 1, checked by expansion before it is
returned. Cofactors are built only for that certificate: the run carries
none, and only when it reaches a constant does it repeat the same
deterministic steps with cofactors tracked. Budget overruns surface as
"inconclusive", never as a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poly import Polynomial, grlex_key

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
    """A polynomial, its leading (exponents, coefficient) (None for zero) and,
    when a certificate is being built, its cofactors over the generators
    (None otherwise)."""

    __slots__ = ("poly", "cofactors", "lead")

    def __init__(self, poly: Polynomial, cofactors: list[Polynomial] | None):
        self.poly = poly
        self.cofactors = cofactors
        self.lead = poly.leading() if poly.terms else None


def _mono(universe, exps, coeff) -> Polynomial:
    return Polynomial(universe, {exps: coeff})


def _divides_mono(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce(f: _Tracked, basis: list[_Tracked], budget: list[int]) -> _Tracked:
    """Full multivariate division of f by the basis, cofactors maintained
    when f carries them. The remainder and the working polynomial are dicts
    changed in place, in the term order the polynomial arithmetic gives."""
    universe = f.poly.universe
    rem: dict = {}
    work = dict(f.poly.terms)
    cof = None if f.cofactors is None else list(f.cofactors)
    while work:
        budget[0] -= 1
        if budget[0] < 0:
            raise _Budget()
        le = max(work, key=grlex_key)
        lc = work[le]
        hit = next((g for g in basis if _divides_mono(g.lead[0], le)), None)
        if hit is None:
            rem[le] = lc
            del work[le]
            continue
        ge, gc = hit.lead
        shift, q = tuple(x - y for x, y in zip(le, ge)), lc / gc
        for e, c in hit.poly.terms.items():  # work - q * x^shift * hit
            e = tuple(x + y for x, y in zip(shift, e))
            s = work.get(e)
            d = -(q * c) if s is None else s - q * c
            if d:
                work[e] = d
            else:
                del work[e]
        if cof is not None:
            factor = _mono(universe, shift, q)
            for k, ck in enumerate(hit.cofactors):
                if not ck.is_zero():
                    cof[k] = cof[k] - factor * ck
    return _Tracked(Polynomial(universe, rem), cof)


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
    total = Polynomial.zero(gens[0].universe)
    for c, g in zip(result.certificate, gens, strict=True):
        total = total + c * g
    if total != Polynomial.constant(total.universe, 1):
        raise ArithmeticError("Buchberger certificate does not expand to 1")


def _buchberger(
    gens: list[Polynomial], step_budget: int, degree_cap: int, track: bool
) -> MembershipResult:
    """One deterministic Buchberger run; cofactors only when track is set."""
    universe = gens[0].universe
    one = Polynomial.constant(universe, 1)

    def certify(item: _Tracked, reductions: int = 0) -> MembershipResult:
        cert = None
        if item.cofactors is not None:
            inv = 1 / item.poly.constant_value()
            cert = [p.scale(inv) for p in item.cofactors]
        return MembershipResult("yes", cert, [one], reductions)

    tracked: list[_Tracked] = []
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        cof = None
        if track:
            cof = [Polynomial.zero(universe) for _ in gens]
            cof[k] = one
        item = _Tracked(g, cof)
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

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    reductions = 0
    try:
        while pairs:
            # normal strategy: smallest lcm of leading monomials first
            def lcm_of(pair):
                a, b = basis[pair[0]].lead[0], basis[pair[1]].lead[0]
                return tuple(max(x, y) for x, y in zip(a, b))

            pair = min(pairs, key=lambda pr: (grlex_key(lcm_of(pr)), pr))
            pairs.discard(pair)
            i, j = pair
            fi, fj = basis[i], basis[j]
            (ei, ci), (ej, cj) = fi.lead, fj.lead
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            if all(x + y == z for x, y, z in zip(ei, ej, lcm)):
                continue  # coprime leading monomials: s-poly reduces to zero
            if sum(lcm) > degree_cap:
                return MembershipResult("inconclusive", None, [])
            mi = _mono(universe, tuple(x - y for x, y in zip(lcm, ei)), 1 / ci)
            mj = _mono(universe, tuple(x - y for x, y in zip(lcm, ej)), 1 / cj)
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
            new_idx = len(basis) - 1
            pairs.update((k, new_idx) for k in range(new_idx))
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
    polys = [b.poly for b in basis]
    keep: list[Polynomial] = []
    for k, p in enumerate(polys):
        le, _ = p.leading()
        others = polys[:k] + polys[k + 1 :]
        if any(_divides_mono(q.leading()[0], le) for q in others if not q.is_zero()):
            polys[k] = Polynomial.zero(p.universe)
        else:
            keep.append(p)
    # inter-reduce and make monic
    out: list[Polynomial] = []
    for k, p in enumerate(keep):
        rest = [_Tracked(q, None) for idx, q in enumerate(keep) if idx != k]
        try:
            red = _reduce(_Tracked(p, None), rest, budget)
        except _Budget:
            return None
        if red.poly.is_zero():
            continue
        _, lc = red.poly.leading()
        out.append(red.poly.scale(1 / lc))
    out.sort(key=lambda q: grlex_key(q.leading()[0]))
    return out
