"""Exact scalars: ints and Fractions for Q, Scalars for the rest of Q(i).

A polynomial's numerators (``poly``) are ints, or Scalars with int parts
(Gaussian integers); at the boundary its coefficients are Fractions, or
Scalars with Fraction parts. Arithmetic on a Scalar that lands back in Q
returns the plain real part. All follow Python's numeric protocol (``+ - *
/``, ``//`` by an int, ``conjugate()``, ``complex()``, ``.real``/``.imag``),
so the kernels run one loop for both fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def _gaussian(real, imag):
    """real + imag*i from exact parts: the plain real part when imag is zero."""
    if not imag:
        return real
    z = object.__new__(Scalar)
    z.real = real
    z.imag = imag
    return z


class Scalar:
    """A non-real element of Q(i); Scalar(a, 0) is the Fraction a."""

    __slots__ = ("real", "imag")

    def __new__(cls, real=0, imag=0):
        if not all(isinstance(x, (int, Fraction)) for x in (real, imag)):
            raise TypeError("Scalar parts must be exact rationals")
        return _gaussian(Fraction(real), Fraction(imag))

    def __eq__(self, other) -> bool:
        # never equal to a rational: a Scalar is not real
        return isinstance(other, Scalar) and self.real == other.real and self.imag == other.imag

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    def __add__(self, other):
        if type(other) is Scalar:
            return _gaussian(self.real + other.real, self.imag + other.imag)
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.real + other, self.imag)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self) -> "Scalar":
        return _gaussian(-self.real, -self.imag)

    def __mul__(self, other):
        if type(other) is Scalar:
            return _gaussian(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            n = Fraction(other.real * other.real + other.imag * other.imag)
            return _gaussian(
                (self.real * other.real + self.imag * other.imag) / n,
                (self.imag * other.real - self.real * other.imag) / n,
            )
        if isinstance(other, (int, Fraction)):
            return _gaussian(Fraction(self.real) / other, Fraction(self.imag) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n = Fraction(self.real * self.real + self.imag * self.imag)
            return _gaussian(other * self.real / n, -other * self.imag / n)
        return NotImplemented

    def __pow__(self, p: int):
        return prod([self] * p)

    def __floordiv__(self, other):
        if isinstance(other, int):
            return _gaussian(self.real // other, self.imag // other)
        return NotImplemented

    def conjugate(self) -> "Scalar":
        return _gaussian(self.real, -self.imag)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __repr__(self) -> str:
        return f"Scalar({self.real!r}, {self.imag!r})"

    def __str__(self) -> str:
        mag = abs(self.imag)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        if not self.real:
            return imtxt if self.imag > 0 else f"-{imtxt}"
        sign = "+" if self.imag > 0 else "-"
        return f"({self.real} {sign} {imtxt})"


def as_scalar(x):
    """An exact coefficient: ints become Fractions, Fractions and Scalars pass."""
    if isinstance(x, (Fraction, Scalar)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact scalar")
