"""Blowup chart tree with exceptional-divisor bookkeeping.

A chart is one coordinate patch of a blowup along a coordinate-subspace
center: for pivot s the substitution keeps x_s and sends x_t to x_s * x_t'
for the other center variables. Centers restricted to coordinate subspaces
are automatically smooth and in normal crossings with the accumulated
coordinate exceptional divisors, so geometric admissibility is enforced
syntactically.

On every chart the pulled-back generators of the Fitting ideal are divided
by their gcd (the local generator carrying the exceptional factor); the
quotients are the weak transform. The chart is resolved once the weak
transform visibly contains a unit: certified by a Groebner 1-membership
certificate, or probable when dense seeded sampling finds no common real
zero. When Buchberger ends "no", the sample is taken on its reduced basis,
which has the weak transform's zeros; one run draws each seeded pool once,
and a center proposal reads the zeros its chart was graded on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, islice
from operator import not_

from .algebra import (
    Polynomial,
    VarUniverse,
    divexact,
    gcd_multivariate,
    ideal_contains_one,
)

DEFAULT_DEPTH_CAP = 6
SAMPLE_COUNT = 2000
POOL_DEN = 840  # lcm(1..8): a multiple of every pool denominator
KEPT_ZEROS = 25  # sampled common zeros a chart keeps for its center proposal

RESOLVED_CERTIFIED = "ResolvedCertified"
RESOLVED_PROBABLE = "ResolvedProbable"
UNRESOLVED = "Unresolved"
INCONCLUSIVE = "Inconclusive"

GOOD_STATUSES = {RESOLVED_CERTIFIED, RESOLVED_PROBABLE}

# fresh chart coordinate names, preferred order
_NAME_POOL = ("u", "v", "w", "a", "b", "c", "d", "e", "f", "g", "h")


class DegenerateChart(ValueError):
    """All pulled minors vanish identically: the family is scalar here."""


class CenterError(ValueError):
    pass


@dataclass
class CenterSpec:
    chart_path: tuple[str, ...]  # pivot names from the root, parent-chart naming
    variables: tuple[str, ...]  # center variables of the addressed chart

    def __post_init__(self):
        object.__setattr__(self, "chart_path", tuple(self.chart_path))
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise CenterError("center variables must be distinct")
        if len(self.variables) < 2:
            raise CenterError("center must have codimension at least 2")


@dataclass
class ChartNode:
    path: tuple[str, ...]  # pivot variable names (parent-chart naming) from the root
    universe: VarUniverse  # parameter chart coordinates (fibers carried along)
    to_base: dict[str, Polynomial]  # base parameter -> polynomial in chart coords
    exceptional: list[tuple[str, int]] = field(default_factory=list)
    pulled_minors: list[Polynomial] = field(default_factory=list)
    local_generator: Polynomial | None = None
    weak_gens: list[Polynomial] = field(default_factory=list)
    status: str = INCONCLUSIVE
    zeros: list[dict[str, Fraction]] = field(default_factory=list)  # sampled, pool order
    certificate: list[Polynomial] | None = None
    groebner_status: str = ""
    children: list["ChartNode"] = field(default_factory=list)
    center: tuple[str, ...] | None = None  # center blown up inside this chart

    @property
    def witness(self) -> dict[str, Fraction] | None:
        return self.zeros[0] if self.zeros else None

    @property
    def depth(self) -> int:
        return len(self.path)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self):
        if self.is_leaf():
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def find(self, path: tuple[str, ...]) -> "ChartNode":
        if tuple(path) == self.path:
            return self
        if len(path) <= len(self.path) or tuple(path[: len(self.path)]) != self.path:
            raise CenterError(f"chart address {path!r} not under {self.path!r}")
        pivot = path[len(self.path)]
        for child in self.children:
            if child.path[-1] == pivot:
                return child.find(path)
        raise CenterError(f"no chart with address {tuple(path)!r}")


def root_chart(fitting_gens: list[Polynomial], universe: VarUniverse) -> ChartNode:
    """Root chart over the base; the weak transform applies here as well."""
    to_base = {name: Polynomial.variable(universe, name) for name in universe.params}
    node = ChartNode(
        path=(),
        universe=universe,
        to_base=to_base,
        pulled_minors=[g.in_universe(universe) for g in fitting_gens],
    )
    weak_transform(node)
    return node


def weak_transform(node: ChartNode) -> ChartNode:
    """Divide the pulled minors by their gcd, the local generator."""
    minors = node.pulled_minors
    nonzero = [m for m in minors if not m.is_zero()]
    if not nonzero:
        raise DegenerateChart(f"all pulled minors vanish on chart {node.path!r}")
    g = Polynomial.zero(nonzero[0].universe)
    for m in nonzero:
        g = gcd_multivariate(g, m)
    node.local_generator = g
    node.weak_gens = [divexact(m, g) for m in minors]
    # each divisor's multiplicity: its exponent in the local generator
    content = g.monomial_content()
    node.exceptional = [(name, content[g.universe.index(name)]) for name, _ in node.exceptional]
    return node


def _fresh_names(universe: VarUniverse, how_many: int) -> list[str]:
    taken = set(universe.names)
    names = chain(_NAME_POOL, (f"w{k}" for k in count(1)))
    return list(islice((n for n in names if n not in taken), how_many))


def blowup_charts(node: ChartNode, center: tuple[str, ...], warn=None) -> list[ChartNode]:
    """One chart per pivot variable of a coordinate-subspace center."""
    variables = tuple(center)
    for name in variables:
        if name not in node.universe.params:
            raise CenterError(f"unknown chart variable {name!r}")
    if len(variables) < 2:
        raise CenterError("center must have codimension at least 2")
    if warn is not None and node.weak_gens:
        zero_map = {
            name: Polynomial.zero(node.universe) for name in variables
        }
        restricted = [g.substitute(zero_map, node.universe) for g in node.weak_gens]
        if any(not g.is_zero() for g in restricted):
            warn(
                f"center {variables!r} on chart {node.path!r} is not contained in "
                "the weak-transform zero set"
            )
    fresh = _fresh_names(node.universe, len(variables))
    rename = dict(zip(variables, fresh))
    children = []
    for pivot in variables:
        new_params = tuple(rename.get(name, name) for name in node.universe.params)
        pivot_new = rename[pivot]
        chart_universe = VarUniverse(new_params, node.universe.fibers)
        pivot_poly = Polynomial.variable(chart_universe, pivot_new)
        mapping = {}
        for name in node.universe.params:
            if name == pivot:
                mapping[name] = pivot_poly
            elif name in rename:
                mapping[name] = pivot_poly * Polynomial.variable(chart_universe, rename[name])
            else:
                mapping[name] = Polynomial.variable(chart_universe, name)
        to_base = {
            base: poly.substitute(mapping, chart_universe)
            for base, poly in node.to_base.items()
        }
        child = ChartNode(
            path=node.path + (pivot,),
            universe=chart_universe,
            to_base=to_base,
            # the pivot's own old divisor pulls back into the new one: its
            # strict transform is not visible in this chart
            exceptional=[(rename.get(n, n), m) for n, m in node.exceptional if n != pivot]
            + [(pivot_new, 0)],
            pulled_minors=[m.substitute(mapping, chart_universe) for m in node.pulled_minors],
        )
        weak_transform(child)
        children.append(child)
    node.children = children
    node.center = variables
    return children


# -- principality -----------------------------------------------------


def _pool_numerators(names: tuple[str, ...], seed: int, count: int = SAMPLE_COUNT):
    """Deterministic pool of rational points biased toward coordinate subspaces,
    each a tuple of integers over POOL_DEN (every drawn denominator divides it).

    The numerators are ``randint(-12, 12) * (POOL_DEN // randint(1, 8))`` drawn
    as CPython's ``randint`` draws them: the fewest bits that hold the range,
    redrawn while out of it."""
    u = len(names)
    pts = [(0,) * u]
    for k in range(u):
        pts += [(0,) * k + (s,) + (0,) * (u - k - 1) for s in (POOL_DEN, -POOL_DEN)]
    rng = random.Random(seed)
    bits, uniform = rng.getrandbits, rng.random
    steps = [POOL_DEN // (b + 1) for b in range(8)]
    while len(pts) < count:
        zero_mask = uniform() < 0.35
        pt = []
        for _ in names:
            if zero_mask and uniform() < 0.5:
                pt.append(0)
                continue
            a = bits(5)
            while a >= 25:
                a = bits(5)
            b = bits(4)
            while b >= 8:
                b = bits(4)
            pt.append((a - 12) * steps[b])
        pts.append(tuple(pt))
    return pts[:count]


def _common_zeros(gens: list[Polynomial], universe: VarUniverse, seed: int, pools: dict | None = None):
    """Sample points, in pool order, at which every generator vanishes exactly:
    each generator evaluated once on the integer columns of the points left.

    ``pools`` maps (parameter count, seed) to a drawn pool and its columns;
    the charts of one run share it, so each pool is drawn once per run."""
    names = universe.params
    pools = {} if pools is None else pools
    key = (len(names), seed)
    if key not in pools:
        pool = _pool_numerators(names, seed)
        pools[key] = pool, [list(col) for col in zip(*pool)]
    alive, columns = pools[key]
    for g in gens:
        if not alive:
            return
        values = g.eval_integer(dict(zip(names, columns)), POOL_DEN, len(alive))[0]
        vanish = list(map(not_, values))
        alive = list(compress(alive, vanish))
        columns = [list(compress(col, vanish)) for col in columns]
    for point in alive:
        yield {n: Fraction(v, POOL_DEN) for n, v in zip(names, point)}


def principality_status(node: ChartNode, seed: int = 42, pools: dict | None = None) -> str:
    """Certify or probe emptiness of the weak transform's common zero set.

    A "no" is sampled on Buchberger's reduced basis, an "inconclusive" on the
    weak generators: both generate the ideal, so they share its real zeros.
    The chart keeps its first KEPT_ZEROS sampled zeros; ``pools`` is the
    run's pool map (see ``_common_zeros``)."""
    gens = [g for g in node.weak_gens if not g.is_zero()]
    if not gens:
        raise DegenerateChart(f"no nonzero weak generators on chart {node.path!r}")
    membership = ideal_contains_one(gens)
    node.groebner_status = membership.status
    if membership.contains_one:
        node.status = RESOLVED_CERTIFIED
        node.certificate = membership.certificate
        node.zeros = []
        return node.status
    sampled = membership.basis or gens
    zeros = _common_zeros(sampled, node.universe, seed + len(node.path), pools)
    node.zeros = list(islice(zeros, KEPT_ZEROS))
    node.status = UNRESOLVED if node.zeros else RESOLVED_PROBABLE
    return node.status


# -- orchestration ----------------------------------------------------


@dataclass
class ResolutionOutcome:
    root: ChartNode | None
    verdict: str  # "Resolved" | "Unresolved"
    warnings: list[str] = field(default_factory=list)

    def leaves(self):
        return [] if self.root is None else list(self.root.leaves())


def run_sequence(
    fitting_gens: list[Polynomial],
    universe: VarUniverse,
    centers: list[CenterSpec],
    seed: int = 42,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> ResolutionOutcome:
    """Apply the configured centers in order and grade every leaf."""
    warnings: list[str] = []
    pools: dict = {}  # one draw per (parameter count, seed) in this run
    root = root_chart(fitting_gens, universe)
    principality_status(root, seed, pools)
    for spec in centers:
        node = root.find(tuple(spec.chart_path))
        if not node.is_leaf():
            raise CenterError(f"chart {spec.chart_path!r} was already blown up")
        if node.depth >= depth_cap:
            warnings.append(
                f"depth cap {depth_cap} reached at {node.path!r}; center skipped"
            )
            continue
        children = blowup_charts(node, spec.variables, warn=warnings.append)
        for child in children:
            principality_status(child, seed, pools)
    statuses = {leaf.status for leaf in root.leaves()}
    verdict = "Resolved" if statuses <= GOOD_STATUSES else "Unresolved"
    return ResolutionOutcome(root, verdict, warnings)


def propose_center(node: ChartNode) -> tuple[str, ...] | None:
    """Heuristic: smallest coordinate subspace containing the sampled common
    zeros ``principality_status`` kept on the chart."""
    if not node.zeros:
        return None
    zero_everywhere = [
        name
        for name in node.universe.params
        if all(not w[name] for w in node.zeros)
    ]
    if len(zero_everywhere) < 2:
        return None
    return tuple(zero_everywhere)
