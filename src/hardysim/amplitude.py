"""Exact scalar arithmetic in the field Q(i, sqrt2).

An ``ExactScalar`` is q0 + q1*i + q2*sqrt2 + q3*i*sqrt2 with rational
coefficients, stored as four int numerators over one shared int
denominator. This field is closed under every beam-splitter factor used
here (1/sqrt2 and i), so circuit amplitudes never need rounding. A plain
``complex`` serves as the floating-point mirror; the two ``Backend``
objects at the bottom of this module, EXACT and FLOAT, carry the arithmetic
of each so that the rest of the package can run on either.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ConfigError, EmptyStateError, UnrepresentableError, echo

FLOAT_TOL = 1e-12
# A float value at most this times the largest magnitude in its map is a
# cancellation residue: a few ulp of the largest term of the sum it came from.
RESIDUE_REL = 4 * sys.float_info.epsilon


class ExactScalar:
    """Element of Q(i, sqrt2): (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / d.

    ``ints`` holds the five Python ints (n0, n1, n2, n3, d) in canonical
    form: d > 0 and gcd(n0, n1, n2, n3, d) == 1. Every result is reduced to
    that form, so equal values have equal ``ints``. Instances are immutable.
    The rational coefficients are read as ``q0..q3``.
    """

    __slots__ = ("ints",)

    def __new__(cls, q0=0, q1=0, q2=0, q3=0):
        # ints and Fractions both carry .numerator and .denominator
        qs = [q if isinstance(q, (int, Fraction)) else Fraction(q)
              for q in (q0, q1, q2, q3)]
        dens = [q.denominator for q in qs]
        d = math.lcm(*dens)
        return _make(*[q.numerator * (d // e) for q, e in zip(qs, dens)], d)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactScalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactScalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (_make, self.ints)

    def __repr__(self) -> str:
        return (f"ExactScalar(q0={self.q0!r}, q1={self.q1!r}, "
                f"q2={self.q2!r}, q3={self.q3!r})")

    q0 = property(lambda self: Fraction(self.ints[0], self.ints[4]))
    q1 = property(lambda self: Fraction(self.ints[1], self.ints[4]))
    q2 = property(lambda self: Fraction(self.ints[2], self.ints[4]))
    q3 = property(lambda self: Fraction(self.ints[3], self.ints[4]))

    def __add__(self, other):
        o = other if type(other) is ExactScalar else _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3, ad = self.ints
        b0, b1, b2, b3, bd = o.ints
        if ad == bd:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _make(a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                     a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        n0, n1, n2, n3, d = self.ints
        return _make(-n0, -n1, -n2, -n3, d)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is ExactScalar else _coerce(other)
        if o is None:
            return NotImplemented
        # 1 has the one canonical form _ONE_INTS, so x * 1 returns x itself.
        if o.ints == _ONE_INTS:
            return self
        a0, a1, a2, a3, ad = self.ints
        b0, b1, b2, b3, bd = o.ints
        # A right factor with one nonzero part, q, q*i, q*sqrt2 or q*i*sqrt2,
        # costs 4 products; i^2 = -1, sqrt2^2 = 2.
        if not (b2 or b3):
            if not b1:
                return _make(a0 * b0, a1 * b0, a2 * b0, a3 * b0, ad * bd)
            if not b0:
                return _make(-a1 * b1, a0 * b1, -a3 * b1, a2 * b1, ad * bd)
        elif not (b0 or b1):
            if not b3:
                t = 2 * b2
                return _make(a2 * t, a3 * t, a0 * b2, a1 * b2, ad * bd)
            if not b2:
                t = 2 * b3
                return _make(-a3 * t, a2 * t, -a1 * b3, a0 * b3, ad * bd)
        # Write x = A + B*sqrt2 with A, B Gaussian.
        return _make(a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                     a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                     a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                     ad * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        # 1/(A + B*sqrt2) = (A - B*sqrt2) / (A^2 - 2 B^2), both steps Gaussian.
        n0, n1, n2, n3, d = self.ints
        if not (n1 or n3):
            # real: d (n0 - n2 sqrt2) / (n0^2 - 2 n2^2), sign on the numerators
            m = n0 * n0 - 2 * n2 * n2
            if m == 0:
                raise ZeroDivisionError("inverse of zero ExactScalar")
            if m < 0:
                return _make(-d * n0, 0, d * n2, 0, -m)
            return _make(d * n0, 0, -d * n2, 0, m)
        conj2 = _make(n0, n1, -n2, -n3, d)
        g0, g1, _, _, gd = (self * conj2).ints
        # A^2 - 2 B^2 != 0: x is not real, so not 0, and sqrt2 is not in Q(i)
        mag = g0 * g0 + g1 * g1
        # 1/((g0 + g1 i)/gd) = gd (g0 - g1 i) / (g0^2 + g1^2)
        return conj2 * _make(gd * g0, -gd * g1, 0, 0, mag)

    def conjugate(self) -> "ExactScalar":
        n0, n1, n2, n3, d = self.ints
        if not (n1 or n3):  # real; instances are immutable, so share it
            return self
        return _make(n0, -n1, n2, -n3, d)

    def __eq__(self, other) -> bool:
        o = other if type(other) is ExactScalar else _coerce(other)
        if o is None:
            return NotImplemented
        return self.ints == o.ints

    def __hash__(self):
        n0, n1, n2, n3, d = self.ints
        if n1 or n2 or n3:
            return hash(self.ints)
        # Rational values hash as the int or Fraction they compare equal to.
        return hash(Fraction(n0, d))

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is.
        n0, n1, n2, n3, d = self.ints
        try:
            r2 = math.sqrt(2.0)
            return complex(n0 / d + n2 / d * r2, n1 / d + n3 / d * r2)
        except OverflowError as exc:
            raise UnrepresentableError(f"overflow converting {self!r}") from exc

    def __float__(self) -> float:
        z = self.to_complex()
        if z.imag != 0.0:
            raise UnrepresentableError(f"{self} has a nonzero imaginary part")
        return z.real

    @classmethod
    def from_string(cls, text: str) -> "ExactScalar":
        coeffs = {"": Fraction(0), "*i": Fraction(0),
                  "*r2": Fraction(0), "*i*r2": Fraction(0)}
        text = text.strip()
        if text != "0":
            for part in text.split(" + "):
                m = re.fullmatch(r"(-?\d+(?:/0*[1-9]\d*)?)((?:\*i)?(?:\*r2)?)",
                             part.strip())
                if m is None:
                    raise ValueError(f"malformed ExactScalar term: {part!r}")
                coeffs[m.group(2)] += Fraction(m.group(1))
        return cls(coeffs[""], coeffs["*i"], coeffs["*r2"], coeffs["*i*r2"])

    def __str__(self) -> str:
        """Canonical form "q0 + q1*i + q2*r2 + q3*i*r2", zero terms omitted."""
        parts = []
        for coeff, tag in ((self.q0, ""), (self.q1, "*i"),
                           (self.q2, "*r2"), (self.q3, "*i*r2")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return " + ".join(parts) if parts else "0"


_ZERO_INTS = (0, 0, 0, 0, 1)
_ONE_INTS = (1, 0, 0, 0, 1)
_new_scalar = object.__new__
_set_ints = ExactScalar.ints.__set__


def _make(n0, n1, n2, n3, d) -> ExactScalar:
    """The scalar (n0 + n1*i + n2*sqrt2 + n3*i*sqrt2) / d, for d > 0,
    reduced to canonical form."""
    g = math.gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    x = _new_scalar(ExactScalar)
    _set_ints(x, (n0, n1, n2, n3, d))
    return x


def _coerce(x):
    """x as an ExactScalar if it is one, an int or a Fraction; else None."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return _make(x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, 0, 0, x.denominator)
    return None


ZERO = ExactScalar()
ONE = ExactScalar(1)
I = ExactScalar(q1=1)
INV_SQRT2 = ExactScalar(q2=Fraction(1, 2))


def _rational_sqrt(n: int, d: int):
    """(a, b) with a/b = sqrt(n/d), for n/d >= 0 in lowest terms, or None
    if that square root is irrational."""
    a, b = math.isqrt(n), math.isqrt(d)
    if a * a == n and b * b == d:
        return a, b
    return None


def exact_sqrt(q: Fraction) -> ExactScalar:
    """sqrt(q) as an ExactScalar; only q = r^2 or q = 2 r^2 are in the field."""
    return EXACT.sqrt(q.numerator, q.denominator)


# ---------------------------------------------------------------------------
# Backends. Exact states carry ExactScalar amplitudes, float states carry
# complex; a Backend holds everything that differs between the two, so no
# caller branches on which one it has.
# ---------------------------------------------------------------------------

class Backend(str):
    """The arithmetic of one backend; EXACT and FLOAT are the only instances.

    A backend is the string "exact" or "float", so it compares, hashes,
    prints and JSON-dumps as that name. Each carries the scalars ``zero``,
    ``one``, ``i`` and ``inv_sqrt2`` and these operations:

    - ``sqrt(n, d)`` and ``rational(n, d)``: sqrt(n/d) and n/d, for ints
      n >= 0 and d > 0 in lowest terms (n / d rounds as float(Fraction));
    - ``prune(amps)``: the map without its zero values;
    - ``ratio(num, den)``: the real number num / den, den a squared norm.
    """

    __slots__ = ()


class _ExactBackend(Backend):
    __slots__ = ()
    zero = ZERO
    one = ONE
    i = I
    inv_sqrt2 = INV_SQRT2

    def sqrt(self, n, d):
        if n >= 0:
            r = _rational_sqrt(n, d)
            if r is not None:
                return _make(r[0], 0, 0, 0, r[1])
            # sqrt(n/d) = sqrt(n/2d) * sqrt2, with n/2d in lowest terms
            r = _rational_sqrt(n // 2, d) if n % 2 == 0 else _rational_sqrt(n, 2 * d)
            if r is not None:
                return _make(0, 0, r[0], 0, r[1])
        raise UnrepresentableError(f"sqrt({echo(Fraction(n, d))}) is not in Q(i, sqrt2)")

    def rational(self, n, d):
        return _make(n, 0, 0, 0, d)

    def prune(self, amps):
        try:
            return {k: a for k, a in amps.items() if a.ints != _ZERO_INTS}
        except AttributeError:
            raise ConfigError("ExactScalar mixed with other values") from None

    def ratio(self, num, den):
        return real_part(num / den)


class _FloatBackend(Backend):
    __slots__ = ()
    zero = 0.0
    one = complex(1.0)
    i = complex(0.0, 1.0)
    inv_sqrt2 = complex(1.0 / math.sqrt(2.0))

    def sqrt(self, n, d):
        return complex(math.sqrt(n / d))

    def rational(self, n, d):
        return complex(n / d)

    def prune(self, amps):
        """Also drops cancellation residues (see RESIDUE_REL)."""
        try:
            cut = RESIDUE_REL * max(map(abs, amps.values()), default=0.0)
        except TypeError:
            raise ConfigError("ExactScalar mixed with other values") from None
        return {k: a for k, a in amps.items() if abs(a) > cut}

    def ratio(self, num, den):
        den = den.real
        if den == 0.0:
            raise EmptyStateError("squared norm underflows to 0.0")
        return num.real / den


EXACT = _ExactBackend("exact")
FLOAT = _FloatBackend("float")
_BACKENDS = {EXACT: EXACT, FLOAT: FLOAT}


def backend(name) -> Backend:
    """The backend called name ("exact" or "float"); else ConfigError."""
    try:
        return _BACKENDS[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown backend {echo(name)}") from None


def backend_of(values) -> Backend:
    """EXACT for no value or a first ExactScalar, FLOAT for any other."""
    return EXACT if isinstance(next(iter(values), ONE), ExactScalar) else FLOAT


def real_part(x):
    """The value as an exact real: Fraction when rational, else a real
    ExactScalar carrying a sqrt2 part. Raises if an imaginary part remains;
    on the float backend, one above FLOAT_TOL * max(1, |real part|)."""
    if isinstance(x, ExactScalar):
        n0, n1, n2, n3, d = x.ints
        if n1 or n3:
            raise UnrepresentableError(f"{x} has a nonzero imaginary part")
        if n2 == 0:
            return Fraction(n0, d)
        return x
    if abs(x.imag) > FLOAT_TOL * max(1.0, abs(x.real)):
        raise UnrepresentableError(f"{x} has a nonzero imaginary part")
    return x.real
