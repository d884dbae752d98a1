"""Sparse exact multivariate polynomials over Q or Q(i).

Terms map exponent tuples (indexed by universe.names) to nonzero Fractions,
or Scalars for non-real Gaussian coefficients. The canonical term order is
graded lexicographic: higher total degree first, ties broken by the exponent
tuple with earlier variables weighing more.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm

from .scalars import Scalar, as_scalar
from .universe import VarUniverse


class UniverseMismatch(ValueError):
    pass


class NotDivisible(ArithmeticError):
    pass


def grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _power(x, p: int):
    """x**p as CPython raises complex (x, 0) to an int power: by squaring."""
    result = None
    while p:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        x = x * x if p else x
    return result


class Polynomial:
    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: dict):
        self.universe = universe
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, universe: VarUniverse) -> "Polynomial":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, value) -> "Polynomial":
        c = as_scalar(value)
        if not c:
            return cls.zero(universe)
        return cls(universe, {(0,) * universe.nvars: c})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str) -> "Polynomial":
        idx = universe.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(universe.nvars))
        return cls(universe, {exps: Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction | Scalar:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.universe == other.universe and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.universe, frozenset(self.terms.items())))

    # -- ring arithmetic ----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.universe != other.universe:
            raise UniverseMismatch("polynomials live in different universes")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return Polynomial(self.universe, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = -c if s is None else s - c
        return Polynomial(self.universe, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.universe, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.universe)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                s = out.get(e)
                out[e] = c if s is None else s + c
        return Polynomial(self.universe, out)

    def scale(self, value) -> "Polynomial":
        c = as_scalar(value)
        if not c:
            return Polynomial.zero(self.universe)
        return Polynomial(self.universe, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.universe, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        idx = self.universe.index(name)
        return max(e[idx] for e in self.terms)

    def coeffs_in(self, idx: int) -> dict[int, "Polynomial"]:
        """View as a polynomial in variable idx: degree -> its coefficient,
        a polynomial free of that variable (only nonzero ones)."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            out.setdefault(e[idx], {})[e[:idx] + (0,) + e[idx + 1 :]] = c
        return {d: Polynomial(self.universe, t) for d, t in out.items()}

    def support_vars(self) -> set[str]:
        names = self.universe.names
        out: set[str] = set()
        for e in self.terms:
            for k, p in enumerate(e):
                if p:
                    out.add(names[k])
        return out

    def leading(self) -> tuple[tuple[int, ...], Fraction | Scalar]:
        """Leading (exponents, coefficient) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction | Scalar]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def sort_key(self):
        """A deterministic total-order key on canonical forms."""
        return tuple(
            (e, str(c.real), str(c.imag)) for e, c in self.sorted_terms()
        )

    def derivative(self, name: str) -> "Polynomial":
        idx = self.universe.index(name)
        out: dict = {}
        for e, c in self.terms.items():
            p = e[idx]
            if not p:
                continue
            ne = e[:idx] + (p - 1,) + e[idx + 1 :]
            nc = c * p
            s = out.get(ne)
            out[ne] = nc if s is None else s + nc
        return Polynomial(self.universe, out)

    # -- substitution and evaluation ----------------------------------

    def in_universe(self, target: VarUniverse) -> "Polynomial":
        """Transport by variable name into a universe containing our support."""
        if target == self.universe:
            return self
        names = self.universe.names
        idx_map = {}
        for k, name in enumerate(names):
            if any(e[k] for e in self.terms):
                idx_map[k] = target.index(name)
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * target.nvars
            for k, p in enumerate(e):
                if p:
                    ne[idx_map[k]] = p
            key = tuple(ne)
            s = out.get(key)
            out[key] = c if s is None else s + c
        return Polynomial(target, out)

    def substitute(self, mapping: dict[str, "Polynomial"], target: VarUniverse | None = None) -> "Polynomial":
        """Exact composition; unmapped variables carry over by name."""
        for name in mapping:
            self.universe.index(name)
        if target is None:
            if mapping:
                target = next(iter(mapping.values())).universe
            else:
                target = self.universe
        images: dict[int, Polynomial] = {}
        for k, name in enumerate(self.universe.names):
            if name in mapping:
                img = mapping[name]
                if img.universe != target:
                    img = img.in_universe(target)
                images[k] = img
        one = Polynomial.constant(target, 1)
        pow_cache: dict[int, list[Polynomial]] = {}

        def img_power(k: int, p: int) -> Polynomial:
            cache = pow_cache.setdefault(k, [one, images[k]])
            while len(cache) <= p:
                cache.append(cache[-1] * images[k])
            return cache[p]

        # one accumulator, dropping a sum that cancels: the term order is that
        # of adding the substituted terms one by one
        out: dict = {}
        for e, c in self.terms.items():
            passthrough = [0] * target.nvars
            part = one
            for k, p in enumerate(e):
                if not p:
                    continue
                if k in images:
                    f = img_power(k, p)
                    part = f if part is one else part * f
                else:
                    passthrough[target.index(self.universe.names[k])] = p
            for pe, pc in part.terms.items():
                key = tuple(x + y for x, y in zip(passthrough, pe))
                v = out.get(key, 0) + c * pc
                if v:
                    out[key] = v
                else:
                    del out[key]
        return Polynomial(target, out)

    def eval_scalar(self, assignment: dict[str, Fraction | Scalar | int]) -> Fraction | Scalar:
        """Exact evaluation; every variable in the support must be assigned."""
        vals: dict[int, Fraction | Scalar] = {}
        for name, v in assignment.items():
            vals[self.universe.index(name)] = as_scalar(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            acc = c
            for k, p in enumerate(e):
                if not p:
                    continue
                if k not in vals:
                    raise KeyError(f"unassigned variable {self.universe.names[k]!r}")
                base = vals[k]
                for _ in range(p):
                    acc = acc * base
            total = total + acc
        return total

    def eval_complex(self, assignment: dict):
        """Float evaluation at real values, numbers or float arrays of one
        shape (then elementwise, into a complex array). Each point rounds as
        Python's complex arithmetic on (v, 0) alone would round it."""
        import numpy as np  # here: imported with the package, it adds 0.6 MB to peak RSS
        names = self.universe.names
        re = im = 0.0
        for e, c in self.terms.items():
            part_re, part_im = float(c.real), float(c.imag)
            for k, p in enumerate(e):
                if p:
                    v = assignment[names[k]]
                    f = _power(v if isinstance(v, np.ndarray) else float(v), p)
                    part_re, part_im = part_re * f, part_im * f
            re, im = re + part_re, im + part_im
        out = np.empty(np.broadcast_shapes(*(np.shape(v) for v in assignment.values())), complex)
        out.real, out.imag = re, im
        return out if out.shape else complex(out)

    def eval_integer(self, numerators: dict, den: int, count: int):
        """Exact values at count rational points x = numerators[x] / den,
        numerators mapping each variable to an object array of ints: returns
        an object array of ints (Scalars over Q(i)) and its denominator."""
        import numpy as np
        names = self.universe.names
        degree = max(self.total_degree(), 0)
        lcd = lcm(*(part.denominator for c in self.terms.values() for part in (c.real, c.imag)))
        total = 0
        for e, c in self.terms.items():
            term = c * lcd * den ** (degree - sum(e))
            term = term if term.imag else int(term)
            for k, p in enumerate(e):
                if p:
                    term = term * numerators[names[k]] ** p
            total = total + term
        return np.broadcast_to(np.asarray(total, dtype=object), (count,)), lcd * den ** degree

    # -- printing -----------------------------------------------------

    def _monomial_str(self, e: tuple[int, ...]) -> str:
        names = self.universe.names
        parts = []
        for k, p in enumerate(e):
            if p == 1:
                parts.append(names[k])
            elif p > 1:
                parts.append(f"{names[k]}^{p}")
        return "*".join(parts)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for e, c in self.sorted_terms():
            mono = self._monomial_str(e)
            if not c.imag:
                neg = c < 0
                mag = abs(c)
                if mono:
                    body = mono if mag == 1 else f"{mag}*{mono}"
                else:
                    body = str(mag)
            elif not c.real:
                neg = c.imag < 0
                mag = abs(c.imag)
                itxt = "i" if mag == 1 else f"{mag}*i"
                body = f"{itxt}*{mono}" if mono else itxt
            else:
                neg = False
                body = f"{c}*{mono}" if mono else str(c)
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


# -- normalization helpers --------------------------------------------


def monic(p: Polynomial) -> Polynomial:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p.scale(1 / lc)


def primitive_normalize(p: Polynomial) -> Polynomial:
    """Integer-primitive representative with positive leading coefficient.

    For real-coefficient polynomials: clear denominators, divide by the
    integer content and make the graded-lex leading coefficient positive.
    Falls back to monic for genuinely complex coefficients.
    """
    if p.is_zero():
        return p
    if any(c.imag for c in p.terms.values()):
        return monic(p)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // _int_gcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = _int_gcd(num, abs(c.numerator * (den // c.denominator)))
    factor = Fraction(den, num)
    _, lc = p.leading()
    if lc < 0:
        factor = -factor
    return p.scale(factor)
