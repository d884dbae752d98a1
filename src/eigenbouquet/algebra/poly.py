"""Sparse exact multivariate polynomials over Q or Q(i).

Integer numerators on packed monomials over one positive denominator
(Monagan and Pearce's packed representation). A monomial is one int: per
variable a field of ``EXP_BITS`` bits and a guard bit, the first variable
most significant, all under the total degree. Int order is then graded lex
order, a product of monomials is a sum of keys, and one subtraction tests
divisibility; a total degree of ``2**EXP_BITS`` raises ``ExponentOverflow``
instead of carrying into the next field. A numerator is an int, or a Scalar
with int parts when not real. Numerators and denominator share no factor,
so equal polynomials store equal terms, in the order the arithmetic
inserts them; ``terms`` shows them as exponent tuples mapped to Fractions
or Scalars.

Every sum but the product's goes through one accumulator, ``_add_into``,
which adds c*x^shift*t into a numerator dict in place and deletes a sum
that reaches 0: the term order is that of adding the terms one by one. The
product keeps a cancelled sum's slot and drops the zeros at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType

from .scalars import Scalar, _gaussian, as_scalar
from .universe import VarUniverse

EXP_BITS = 16
_FIELD = EXP_BITS + 1  # the value bits and one guard bit
_VALUE = (1 << EXP_BITS) - 1


class UniverseMismatch(ValueError):
    pass


class NotDivisible(ArithmeticError):
    pass


class ExponentOverflow(ValueError):
    """A monomial's total degree reached 2**EXP_BITS, beyond its packed key."""


class _Layout:
    """The packed keys of monomials in one number of variables."""

    __slots__ = ("shifts", "units", "top", "guard", "limit")

    def __init__(self, nvars: int):
        self.shifts = tuple(_FIELD * (nvars - 1 - k) for k in range(nvars))
        self.top = _FIELD * nvars
        # a unit is a variable to the first power: one in its field and the degree's
        self.units = tuple((1 << s) + (1 << self.top) for s in self.shifts)
        self.guard = sum(1 << (_FIELD * k + EXP_BITS) for k in range(nvars + 1))
        self.limit = 1 << (self.top + EXP_BITS)

    def pack(self, exps) -> int:
        if len(exps) != len(self.units) or min(exps, default=0) < 0:
            raise ValueError(f"exponents {tuple(exps)} do not fit {len(self.units)} variables")
        return self.check(sum(e * u for e, u in zip(exps, self.units)))

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> s) & _VALUE for s in self.shifts)

    def check(self, key: int) -> int:
        if key >= self.limit:
            raise ExponentOverflow(f"total degree {key >> self.top} reaches 2^{EXP_BITS}")
        return key

    def divides(self, a: int, b: int) -> bool:
        """Whether monomial a divides b: no field of b - a borrows."""
        return ((b | self.guard) - a) & self.guard == self.guard


_LAYOUTS: dict[int, _Layout] = {}


def _layout(universe: VarUniverse) -> _Layout:
    return _LAYOUTS.get(universe.nvars) or _LAYOUTS.setdefault(universe.nvars, _Layout(universe.nvars))


def _coefficient(c, den: int):
    """A numerator over den as the exact boundary value: Fraction or Scalar."""
    return Fraction(c, den) if type(c) is int else _gaussian(Fraction(c.real, den), Fraction(c.imag, den))


def _qstr(n: int, d: int) -> str:
    """n/d as its reduced Fraction prints."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _integral(values: dict) -> tuple[dict, int]:
    """Exact values over their least common denominator: (numerators, den)."""
    parts = {k: (v.real, v.imag) if type(v) is Scalar else (v, 0) for k, v in values.items()}
    den = lcm(*(q.denominator for p in parts.values() for q in p))
    return {k: _gaussian(*(q.numerator * (den // q.denominator) for q in p)) for k, p in parts.items()}, den


class Polynomial:
    __slots__ = ("universe", "_t", "den")

    def __init__(self, universe: VarUniverse, terms: dict):
        """From exponent tuples to int, Fraction or Scalar (else TypeError)."""
        nums, den = _integral({_layout(universe).pack(e): as_scalar(c) for e, c in terms.items()})
        self.universe = universe
        self._t, self.den = _reduced({k: n for k, n in nums.items() if n}, den)

    @classmethod
    def _make(cls, universe: VarUniverse, t: dict, den: int = 1) -> "Polynomial":
        """From nonzero packed numerators over a positive denominator."""
        p = object.__new__(cls)
        p.universe = universe
        p._t, p.den = _reduced(t, den) if den != 1 else (t, 1)
        return p

    @classmethod
    def zero(cls, universe: VarUniverse) -> "Polynomial":
        return cls._make(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, value) -> "Polynomial":
        return cls(universe, {(0,) * universe.nvars: value})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str) -> "Polynomial":
        return cls._make(universe, {_layout(universe).units[universe.index(name)]: 1})

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self) -> Fraction | Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _coefficient(self._t.get(0, 0), self.den)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def __eq__(self, other) -> bool:
        mine = (self.universe, self.den, self._t)
        return isinstance(other, Polynomial) and mine == (other.universe, other.den, other._t)

    def __hash__(self) -> int:
        return hash((self.universe, self.den, frozenset(self._t.items())))

    @property
    def terms(self):
        """Read-only: exponent tuple -> Fraction or Scalar, in stored order."""
        unpack = _layout(self.universe).unpack
        return MappingProxyType({unpack(k): _coefficient(c, self.den) for k, c in self._t.items()})

    def _check(self, other: "Polynomial"):
        if self.universe is not other.universe and self.universe != other.universe:
            raise UniverseMismatch("polynomials live in different universes")

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        fa = den // self.den
        terms = dict(self._t) if fa == 1 else {k: c * fa for k, c in self._t.items()}
        _add_into(terms, den // other.den * sign, 0, other._t)
        return Polynomial._make(self.universe, terms, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.universe, {k: -c for k, c in self._t.items()}, self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self._t, other._t
        if not a or not b:
            return Polynomial.zero(self.universe)
        _layout(self.universe).check(max(a) + max(b))
        den = self.den * other.den
        if len(a) == 1 or len(b) == 1:  # no two products meet: a relabeling
            ((ka, ca),), b = (a.items(), b) if len(a) == 1 else (b.items(), a)
            return Polynomial._make(self.universe, {ka + kb: ca * cb for kb, cb in b.items()}, den)
        out: dict = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                s = get(ka + kb)
                out[ka + kb] = ca * cb if s is None else s + ca * cb
        return Polynomial._make(self.universe, {k: c for k, c in out.items() if c}, den)

    def scale(self, value) -> "Polynomial":
        nums, den = _integral({0: as_scalar(value)})
        m = nums[0]
        return Polynomial._make(self.universe, {k: v * m for k, v in self._t.items() if m}, self.den * den)

    def _over(self, c) -> "Polynomial":
        """self / c for a nonzero int or Gaussian integer c."""
        if type(c) is int:
            m, d = (-1, -c) if c < 0 else (1, c)
        else:
            m, d = c.conjugate(), c.real * c.real + c.imag * c.imag
        t = self._t if m == 1 else {k: v * m for k, v in self._t.items()}
        return Polynomial._make(self.universe, t, self.den * d)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result, base = Polynomial.constant(self.universe, 1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def total_degree(self) -> int:
        return max(self._t) >> _layout(self.universe).top if self._t else -1

    def degree_in(self, name: str) -> int:
        s = _layout(self.universe).shifts[self.universe.index(name)]
        return max(((k >> s) & _VALUE for k in self._t), default=-1)

    def coeffs_in(self, idx: int) -> dict[int, "Polynomial"]:
        """View as a polynomial in variable idx: degree -> its coefficient,
        a polynomial free of that variable (only nonzero ones)."""
        s, unit = _layout(self.universe).shifts[idx], _layout(self.universe).units[idx]
        out: dict[int, dict] = {}
        for k, c in self._t.items():
            out.setdefault((k >> s) & _VALUE, {})[k - ((k >> s) & _VALUE) * unit] = c
        return {d: Polynomial._make(self.universe, t, self.den) for d, t in out.items()}

    def support_vars(self) -> set[str]:
        seen = 0
        for k in self._t:
            seen |= k
        shifts = _layout(self.universe).shifts
        return {name for name, s in zip(self.universe.names, shifts) if (seen >> s) & _VALUE}

    def monomial_content(self) -> tuple[int, ...]:
        """Exponents of the largest monomial dividing every term."""
        return tuple(map(min, zip(*map(_layout(self.universe).unpack, self._t))))

    def leading(self) -> tuple[tuple[int, ...], Fraction | Scalar]:
        """Leading (exponents, coefficient) under graded lex."""
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._t)
        return _layout(self.universe).unpack(k), _coefficient(self._t[k], self.den)

    def sort_key(self):
        """A deterministic total-order key on canonical forms."""
        unpack, den, t = _layout(self.universe).unpack, self.den, self._t
        return tuple(
            (unpack(k), _qstr(t[k].real, den), _qstr(t[k].imag, den)) for k in sorted(t, reverse=True)
        )

    def derivative(self, name: str) -> "Polynomial":
        idx = self.universe.index(name)
        s, unit = _layout(self.universe).shifts[idx], _layout(self.universe).units[idx]
        t = {k - unit: c * ((k >> s) & _VALUE) for k, c in self._t.items() if (k >> s) & _VALUE}
        return Polynomial._make(self.universe, t, self.den)

    def conjugate(self) -> "Polynomial":
        return Polynomial._make(self.universe, {k: c.conjugate() for k, c in self._t.items()}, self.den)

    def _powers(self):
        """Per term in stored order: numerator, total degree, and the
        (variable index, exponent) pairs of its nonzero exponents."""
        lay = _layout(self.universe)
        for key, c in self._t.items():
            yield c, key >> lay.top, [(k, p) for k, s in enumerate(lay.shifts) if (p := (key >> s) & _VALUE)]

    def in_universe(self, target: VarUniverse) -> "Polynomial":
        """Transport by variable name into a universe containing our support."""
        if target == self.universe:
            return self
        shifts, units, sup = _layout(self.universe).shifts, _layout(target).units, self.support_vars()
        moves = [(s, units[target.index(n)]) for n, s in zip(self.universe.names, shifts) if n in sup]
        out = {sum(((k >> s) & _VALUE) * u for s, u in moves): c for k, c in self._t.items()}
        return Polynomial._make(target, out, self.den)

    def substitute(self, mapping: dict[str, "Polynomial"], target: VarUniverse | None = None) -> "Polynomial":
        """Exact composition; unmapped variables carry over by name."""
        for name in mapping:
            self.universe.index(name)
        if target is None:
            target = next(iter(mapping.values())).universe if mapping else self.universe
        names, lay = self.universe.names, _layout(target)
        images = {k: mapping[n].in_universe(target) for k, n in enumerate(names) if n in mapping}
        one = Polynomial.constant(target, 1)
        pow_cache: dict[int, list[Polynomial]] = {k: [one, img] for k, img in images.items()}
        parts = []
        for c, _, powers in self._powers():
            passthrough, part = 0, one
            for k, p in powers:
                if k in images:
                    cache = pow_cache[k]
                    while len(cache) <= p:
                        cache.append(cache[-1] * images[k])
                    part = cache[p] if part is one else part * cache[p]
                else:
                    passthrough += p * lay.units[target.index(names[k])]
            if part:
                lay.check(passthrough + max(part._t))
            parts.append((c, passthrough, part))
        common = lcm(*(part.den for _, _, part in parts))
        out: dict = {}
        for c, passthrough, part in parts:
            _add_into(out, c * (common // part.den), passthrough, part._t)
        return Polynomial._make(target, out, self.den * common)

    def eval_scalar(self, assignment: dict[str, Fraction | Scalar | int]) -> Fraction | Scalar:
        """Exact evaluation; every variable in the support must be assigned."""
        if not self._t:
            return Fraction(0)
        sup = self.support_vars()
        if not sup <= assignment.keys():
            raise KeyError(f"unassigned variable {min(sup - assignment.keys(), key=self.universe.index)!r}")
        vals = {self.universe.index(name): as_scalar(v) for name, v in assignment.items() if name in sup}
        numerators, den = _integral(vals)
        values, scale = self._evaluate({k: [v] for k, v in numerators.items()}, den, 1)
        return _coefficient(values[0], scale)

    def eval_complex(self, assignment: dict):
        """Float evaluation at real values, numbers or float arrays of one
        shape (then elementwise, into a complex array). Each point rounds as
        Python's complex arithmetic on (v, 0) alone would round it."""
        import numpy as np  # here: only the float layer calls this; analyze and resolve load no numpy
        names = self.universe.names
        re = im = 0.0
        for c, _, powers in self._powers():
            # one correctly rounded int quotient, as the reduced Fraction's float
            part_re, part_im = c.real / self.den, c.imag / self.den
            for k, p in powers:
                v = assignment[names[k]]
                f = _power(v if isinstance(v, np.ndarray) else float(v), p)
                part_re, part_im = part_re * f, part_im * f
            re, im = re + part_re, im + part_im
        out = np.empty(np.broadcast_shapes(*(np.shape(v) for v in assignment.values())), complex)
        out.real, out.imag = re, im
        return out if out.shape else complex(out)

    def eval_integer(self, numerators: dict, den: int, count: int):
        """Exact values at count rational points x = numerators[x] / den,
        numerators mapping each variable to a list of ints: returns a list
        of ints (Scalars over Q(i)) and its denominator."""
        at = {k: numerators[name] for k, name in enumerate(self.universe.names) if name in numerators}
        return self._evaluate(at, den, count)

    def _evaluate(self, columns: dict[int, list], den: int, count: int) -> tuple[list, int]:
        """(values, s), the value at point i, x_k = columns[k][i] / den, being
        values[i] / s: each term over s = self.den * den**degree, summed in
        stored order. Column by column: each factor and sum is one map over
        all points."""
        degree = max(self.total_degree(), 0)
        total = [0] * count
        for term, d, powers in self._powers():
            column = repeat(term * den ** (degree - d), count)
            for k, p in powers:
                x = columns[k]
                column = map(mul, column, x if p == 1 else map(pow, x, repeat(p)))
            total = list(map(add, total, column))
        return total, self.den * den ** degree

    def to_string(self) -> str:
        if not self._t:
            return "0"
        names, unpack, den = self.universe.names, _layout(self.universe).unpack, self.den
        pieces: list[str] = []
        for key in sorted(self._t, reverse=True):
            c = self._t[key]
            mono = "*".join(names[k] if p == 1 else f"{names[k]}^{p}" for k, p in enumerate(unpack(key)) if p)
            if c.real and c.imag:
                neg, body = False, [str(_coefficient(c, den))]
            else:  # a real or an imaginary coefficient: a sign, a magnitude unless 1, an i
                neg, mag = (c.imag or c) < 0, abs(c.imag or c)
                body = [_qstr(mag, den)] if mag != den or not (mono or c.imag) else []
                body += ["i"] if c.imag else []
            body = "*".join(body + [mono] if mono else body)
            pieces.append(("- " if neg else "+ ") + body if pieces else ("-" if neg else "") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def _add_into(out: dict, c, shift: int, t: dict) -> None:
    """out += c * x^shift * t on packed numerators, in place, for a nonzero
    c: a sum that reaches 0 is deleted, so a key that comes back later goes
    to the end, as if the terms were added one by one."""
    get = out.get
    for k, v in t.items():
        k += shift
        s = get(k, 0) + c * v
        if s:
            out[k] = s
        else:
            del out[k]


def _reduced(t: dict, den: int) -> tuple[dict, int]:
    """Numerators and denominator divided by their common integer factor."""
    g = den
    for c in t.values():
        g = gcd(g, c) if type(c) is int else gcd(g, c.real, c.imag)
        if g == 1:
            return t, den
    return {k: c // g for k, c in t.items()}, den // g


def _power(x, p: int):
    """x**p as CPython raises complex (x, 0) to an int power: by squaring."""
    result = None
    while p:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        x = x * x if p else x
    return result


# -- normalization helpers --------------------------------------------


def monic(p: Polynomial) -> Polynomial:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    return Polynomial._make(p.universe, p._t)._over(p._t[max(p._t)])


def primitive_normalize(p: Polynomial) -> Polynomial:
    """Integer-primitive representative with positive leading coefficient.

    For real-coefficient polynomials: divide the numerators by their
    integer content and make the graded-lex leading coefficient positive.
    Falls back to monic for genuinely complex coefficients.
    """
    if not p or any(type(c) is not int for c in p._t.values()):
        return monic(p)
    g = gcd(*p._t.values()) * (1 if p._t[max(p._t)] > 0 else -1)
    return Polynomial._make(p.universe, {k: c // g for k, c in p._t.items()})
