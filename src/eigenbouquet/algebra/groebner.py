"""Buchberger's algorithm, specialized for certified 1-membership.

The single consumer is principality certification: does the weak-transform
ideal contain 1? We run Buchberger to a reduced graded-lex basis under a
step and degree budget, tracking cofactors so a positive answer comes with
an explicit combination sum(cofactor_k * gen_k) = 1 verifiable by expansion.
Budget overruns surface as "inconclusive", never as a wrong answer.
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
    __slots__ = ("poly", "cofactors")

    def __init__(self, poly: Polynomial, cofactors: list[Polynomial]):
        self.poly = poly
        self.cofactors = cofactors


def _mono(universe, exps, coeff) -> Polynomial:
    return Polynomial(universe, {exps: coeff})


def _divides_mono(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce(f: _Tracked, basis: list[_Tracked], budget: list[int]) -> _Tracked:
    """Full multivariate division of f by the basis, cofactors maintained."""
    universe = f.poly.universe
    rem = Polynomial.zero(universe)
    work = f.poly
    cof = [c for c in f.cofactors]
    while work.terms:
        budget[0] -= 1
        if budget[0] < 0:
            raise _Budget()
        le, lc = work.leading()
        hit = None
        for g in basis:
            ge, _ = g.poly.leading()
            if _divides_mono(ge, le):
                hit = g
                break
        if hit is None:
            t = _mono(universe, le, lc)
            rem = rem + t
            work = work - t
            continue
        ge, gc = hit.poly.leading()
        factor = _mono(universe, tuple(x - y for x, y in zip(le, ge)), lc / gc)
        work = work - factor * hit.poly
        for k in range(len(cof)):
            ck = hit.cofactors[k]
            if not ck.is_zero():
                cof[k] = cof[k] - factor * ck
    return _Tracked(rem, cof)


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
    universe = gens[0].universe
    one = Polynomial.constant(universe, 1)

    def certify(tracked: _Tracked) -> MembershipResult:
        c = tracked.poly.constant_value()
        inv = 1 / c
        cert = [p.scale(inv) for p in tracked.cofactors]
        return MembershipResult("yes", cert, [one])

    tracked: list[_Tracked] = []
    for k, g in enumerate(gens):
        cof = [Polynomial.zero(universe) for _ in gens]
        cof[k] = one
        if g.is_zero():
            continue
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
                a, _ = basis[pair[0]].poly.leading()
                b, _ = basis[pair[1]].poly.leading()
                return tuple(max(x, y) for x, y in zip(a, b))

            pair = min(pairs, key=lambda pr: (grlex_key(lcm_of(pr)), pr))
            pairs.discard(pair)
            i, j = pair
            fi, fj = basis[i], basis[j]
            ei, ci = fi.poly.leading()
            ej, cj = fj.poly.leading()
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            if all(x + y == z for x, y, z in zip(ei, ej, lcm)):
                continue  # coprime leading monomials: s-poly reduces to zero
            if sum(lcm) > degree_cap:
                return MembershipResult("inconclusive", None, [])
            mi = _mono(universe, tuple(x - y for x, y in zip(lcm, ei)), 1 / ci)
            mj = _mono(universe, tuple(x - y for x, y in zip(lcm, ej)), 1 / cj)
            spoly = mi * fi.poly - mj * fj.poly
            cof = [mi * a - mj * b for a, b in zip(fi.cofactors, fj.cofactors)]
            reductions += 1
            red = _reduce(_Tracked(spoly, cof), basis, budget)
            if red.poly.is_zero():
                continue
            if red.poly.is_constant():
                res = certify(red)
                res.reductions = reductions
                return res
            if red.poly.total_degree() > degree_cap:
                return MembershipResult("inconclusive", None, [])
            basis.append(red)
            new_idx = len(basis) - 1
            pairs.update((k, new_idx) for k in range(new_idx))
    except _Budget:
        return MembershipResult("inconclusive", None, [])

    reduced = _reduced_basis(basis, budget)
    if reduced is None:
        return MembershipResult("inconclusive", None, [])
    if len(reduced) == 1 and reduced[0].is_constant():
        # unreachable in practice (constants certify earlier), kept for safety
        return MembershipResult("yes", None, [one])
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
        rest = [ _Tracked(q, []) for idx, q in enumerate(keep) if idx != k]
        try:
            red = _reduce(_Tracked(p, []), rest, budget)
        except _Budget:
            return None
        if red.poly.is_zero():
            continue
        _, lc = red.poly.leading()
        out.append(red.poly.scale(1 / lc))
    out.sort(key=lambda q: grlex_key(q.leading()[0]))
    return out
