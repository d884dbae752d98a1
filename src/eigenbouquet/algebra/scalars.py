"""Exact scalars: rationals and Gaussian rationals.

A Scalar is a complex number re + im*i with both parts arbitrary-precision
rationals. Families over the rational field keep im identically zero; the
gaussian field realizes the complex ground field at desk scale.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


class Scalar:
    """An element of Q(i), stored in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        if not self.im and not other.im:
            return Scalar(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_float(self) -> float:
        if self.im:
            raise ValueError("scalar has a nonzero imaginary part")
        return float(self.re)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re} {sign} {imtxt})"


ZERO = Scalar(0)
ONE = Scalar(1)
I_UNIT = Scalar(0, 1)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(_as_fraction(x))


def all_exact(values) -> bool:
    """True when every value is an exact int, Fraction or Scalar."""
    return all(isinstance(v, (int, Fraction, Scalar)) for v in values)
