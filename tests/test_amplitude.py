"""Exact field arithmetic in Q(i, sqrt2)."""

import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hardysim import amplitude as amp
from hardysim.amplitude import (FLOAT_TOL, ExactScalar, I, INV_SQRT2, ONE, ZERO,
                                exact_sqrt, real_part)
from hardysim.errors import ConfigError, UnrepresentableError
from helpers import scalars


def frac(n, d=1):
    return Fraction(n, d)


class TestArithmetic:
    def test_inv_sqrt2_squared(self):
        assert INV_SQRT2 * INV_SQRT2 == ExactScalar(frac(1, 2))

    def test_i_squared(self):
        assert I * I == -ONE

    def test_one_plus_i_over_sqrt2_squared(self):
        x = (ONE + I) * INV_SQRT2
        assert x * x == I

    def test_sqrt2_times_sqrt2(self):
        assert ExactScalar(q2=1) * ExactScalar(q2=1) == ExactScalar(2)

    def test_division(self):
        x = ExactScalar(frac(1, 3), frac(2), frac(-1, 2), frac(5))
        assert x / x == ONE
        assert (ONE / x) * x == ONE

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()


class TestMixedTypes:
    """An operand that is not an ExactScalar, an int or a Fraction makes each
    operator return NotImplemented, so Python raises TypeError and == is
    False; an int on the left of - is coerced by __rsub__."""

    X = ExactScalar(frac(1, 3), frac(2), frac(-1, 2), frac(5))

    @pytest.mark.parametrize("op, expected", [
        (lambda x: x + "a", TypeError),
        (lambda x: x - "a", TypeError),
        (lambda x: "a" - x, TypeError),
        (lambda x: x * "a", TypeError),
        (lambda x: x / "a", TypeError),
        (lambda x: "a" / x, TypeError),
        (lambda x: x == "a", False),
        (lambda x: 1 - x, ONE - X),
    ], ids=["add", "sub", "rsub", "mul", "truediv", "rtruediv", "eq",
            "int-rsub"])
    def test_operators(self, op, expected):
        if expected is TypeError:
            with pytest.raises(TypeError):
                op(self.X)
        else:
            assert op(self.X) == expected


class TestNormSq:
    def test_i_over_two(self):
        x = I * ExactScalar(frac(1, 2))
        assert x * x.conjugate() == ExactScalar(frac(1, 4))

    def test_inv_sqrt2(self):
        assert INV_SQRT2 * INV_SQRT2.conjugate() == ExactScalar(frac(1, 2))

    def test_one_plus_i_over_sqrt2(self):
        x = (ONE + I) * INV_SQRT2
        assert x * x.conjugate() == ONE

    def test_i_parts_always_vanish(self):
        x = ExactScalar(frac(3, 7), frac(-2), frac(1, 2), frac(4, 3))
        n = x * x.conjugate()
        assert n.q1 == 0 and n.q3 == 0


class TestFloatMirror:
    def test_half(self):
        assert ExactScalar(frac(1, 2)).to_complex() == 0.5 + 0j

    def test_i_sqrt2(self):
        z = (I * ExactScalar(q2=1)).to_complex()
        assert z.real == 0.0
        assert abs(z.imag - math.sqrt(2)) < 1e-15

    def test_inv_two_sqrt3_not_exact(self):
        # 1/(2 sqrt3) is outside the field; the float value is the only carrier
        with pytest.raises(UnrepresentableError):
            exact_sqrt(frac(1, 12))
        assert abs(math.sqrt(1 / 12) - 0.2886751345948129) < 1e-15

    @pytest.mark.parametrize("re", [0.0, 0.5, 1e6])
    def test_real_part_keeps_to_the_tolerance(self, re):
        bound = FLOAT_TOL * max(1.0, re)
        assert real_part(complex(re, bound)) == re
        assert real_part(complex(re, -bound)) == re
        for im in (2 * bound, -2 * bound, 0.3):
            with pytest.raises(UnrepresentableError):
                real_part(complex(re, im))


class TestExactSqrt:
    def test_square_rationals(self):
        assert exact_sqrt(frac(1, 4)) == ExactScalar(frac(1, 2))
        assert exact_sqrt(frac(9)) == ExactScalar(3)

    def test_twice_square(self):
        assert exact_sqrt(frac(1, 2)) == INV_SQRT2
        assert exact_sqrt(frac(2)) == ExactScalar(q2=1)

    def test_unrepresentable(self):
        with pytest.raises(UnrepresentableError):
            exact_sqrt(frac(3, 4))
        with pytest.raises(UnrepresentableError):
            exact_sqrt(frac(-1))

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=1000, max_denominator=1000))
    def test_squares_and_twice_squares(self, r):
        assert exact_sqrt(r * r) == ExactScalar(r)
        assert exact_sqrt(2 * r * r) == ExactScalar(q2=r)


class TestSerialization:
    @pytest.mark.parametrize("value, text", [
        (ZERO, "0"),
        (ONE, "1"),
        (ExactScalar(frac(-1, 2)), "-1/2"),
        (I, "1*i"),
        (INV_SQRT2, "1/2*r2"),
        (ExactScalar(frac(1, 2), frac(-3), frac(0), frac(2, 7)),
         "1/2 + -3*i + 2/7*i*r2"),
    ])
    def test_canonical_text(self, value, text):
        assert str(value) == text
        assert ExactScalar.from_string(text) == value

    @given(scalars)
    def test_round_trip(self, x):
        assert ExactScalar.from_string(str(x)) == x

    def test_malformed(self):
        with pytest.raises(ValueError):
            ExactScalar.from_string("1 + bogus")
        for text in ("1/0", "2 + -1/00*i"):  # Fraction() alone divides by zero
            with pytest.raises(ValueError, match="malformed"):
                ExactScalar.from_string(text)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_conjugation_and_norm_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    ab = a * b
    assert ab * ab.conjugate() == (a * a.conjugate()) * (b * b.conjugate())


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_float_mirror_respects_operations(a, b):
    za, zb = a.to_complex(), b.to_complex()
    assert abs((a + b).to_complex() - (za + zb)) <= 1e-12 * max(1.0, abs(za + zb))
    assert abs((a * b).to_complex() - (za * zb)) <= 1e-12 * max(1.0, abs(za * zb))


# ---------------------------------------------------------------------------
# The integer representation, checked against a plain Fraction-coefficient
# reference that shares no code with ExactScalar.
# ---------------------------------------------------------------------------

class RefScalar:
    """q0 + q1*i + q2*sqrt2 + q3*i*sqrt2 held as four Fractions."""

    def __init__(self, q0, q1, q2, q3):
        self.q = (Fraction(q0), Fraction(q1), Fraction(q2), Fraction(q3))

    def __add__(self, o):
        return RefScalar(*(x + y for x, y in zip(self.q, o.q)))

    def __sub__(self, o):
        return RefScalar(*(x - y for x, y in zip(self.q, o.q)))

    def __mul__(self, o):
        a0, a1, a2, a3 = self.q
        b0, b1, b2, b3 = o.q
        return RefScalar(a0 * b0 - a1 * b1 + 2 * a2 * b2 - 2 * a3 * b3,
                         a0 * b1 + a1 * b0 + 2 * a2 * b3 + 2 * a3 * b2,
                         a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                         a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)

    def conjugate(self):
        a0, a1, a2, a3 = self.q
        return RefScalar(a0, -a1, a2, -a3)

    def inverse(self):
        # multiply by the sqrt2-conjugate, then by the complex conjugate
        a0, a1, a2, a3 = self.q
        conj2 = RefScalar(a0, a1, -a2, -a3)
        g0, g1, _, _ = (self * conj2).q
        mag = g0 * g0 + g1 * g1
        return conj2 * RefScalar(g0 / mag, -g1 / mag, 0, 0)


ref_coeffs = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                       st.fractions(min_value=-1000, max_value=1000,
                                    max_denominator=60))
coeff_lists = st.lists(ref_coeffs, min_size=4, max_size=4)


def _place(terms):
    """Four coefficients: the given (slot, q) pairs, zero elsewhere."""
    qs = [Fraction(0)] * 4
    for slot, q in terms:
        qs[slot] = q
    return qs


# Operands that hit the short cuts and their edges often: 0, +-1 and other
# rationals, real values q0 + q2*sqrt2 (1 + q2*sqrt2 among them) and single
# terms, besides general values.
operands = st.one_of(
    coeff_lists,
    ref_coeffs.map(lambda q: _place([(0, q)])),
    st.tuples(ref_coeffs, ref_coeffs).map(lambda t: _place([(0, t[0]), (2, t[1])])),
    st.tuples(st.integers(0, 3), ref_coeffs).map(lambda t: _place([t])),
)


def assert_canonical(x):
    n0, n1, n2, n3, d = x.ints
    assert all(type(n) is int for n in x.ints)
    assert d > 0
    assert math.gcd(n0, n1, n2, n3, d) == 1


def assert_matches(x, ref):
    assert_canonical(x)
    assert (x.q0, x.q1, x.q2, x.q3) == ref.q
    assert all(type(q) is Fraction for q in (x.q0, x.q1, x.q2, x.q3))


@settings(max_examples=400, deadline=None)
@given(operands, operands)
def test_differential_against_fraction_reference(ca, cb):
    a, b = ExactScalar(*ca), ExactScalar(*cb)
    ra, rb = RefScalar(*ca), RefScalar(*cb)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(-a, RefScalar(0, 0, 0, 0) - ra)
    assert_matches(a * b, ra * rb)
    assert_matches(a.conjugate(), ra.conjugate())
    assert (a == b) == (ra.q == rb.q)
    if any(ra.q):
        assert_matches(a.inverse(), ra.inverse())
    # equal values built along different routes are equal and hash alike
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


class TestShortCuts:
    """Multiplying by 1 on the right and conjugating a real value skip the
    arithmetic, and 1 on the left is multiplied out like any other factor;
    the results must still be the reference values, in canonical form."""

    @pytest.mark.parametrize("slot", range(4))  # c, c*i, c*sqrt2, c*i*sqrt2
    @pytest.mark.parametrize("c", [Fraction(3, 7), Fraction(-2), Fraction(1)])
    def test_conjugate_of_each_monomial(self, slot, c):
        qs = _place([(slot, c)])
        assert_matches(ExactScalar(*qs).conjugate(), RefScalar(*qs).conjugate())

    @settings(max_examples=200, deadline=None)
    @given(operands)
    def test_times_one_and_minus_one(self, qs):
        x, rx = ExactScalar(*qs), RefScalar(*qs)
        for unit in (1, Fraction(1), ONE):
            assert_matches(x * unit, rx)
            assert_matches(unit * x, rx)
        minus = RefScalar(-1, 0, 0, 0)
        assert_matches(x * -1, rx * minus)
        assert_matches(-1 * x, rx * minus)
        assert_matches(x * -ONE, rx * minus)

    @pytest.mark.parametrize("qs", [(1, 1, 0, 0), (1, 0, Fraction(1, 2), 0),
                                    (1, 0, 0, -1), (Fraction(1, 2), 0, 0, 0),
                                    (2, 0, 0, 0), (0, 1, 0, 0)])
    def test_values_near_one_are_multiplied(self, qs):
        x = ExactScalar(Fraction(2, 3), Fraction(-5), Fraction(1, 4), Fraction(3))
        rx = RefScalar(Fraction(2, 3), Fraction(-5), Fraction(1, 4), Fraction(3))
        assert_matches(x * ExactScalar(*qs), rx * RefScalar(*qs))
        assert_matches(ExactScalar(*qs) * x, RefScalar(*qs) * rx)


class TestOnePartFactors:
    """A right factor with one nonzero part (q, q*i, q*sqrt2, q*i*sqrt2)
    and the inverse of a real value each take a short formula, and sign
    flips reduce like every other result; each must be the reference value
    in canonical form."""

    # small numerators, zero and negatives included, over varied denominators
    small_q = st.builds(Fraction, st.integers(-9, 9),
                        st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 25, 50]))
    parts = st.lists(small_q, min_size=4, max_size=4)
    one_part = st.tuples(st.integers(0, 3), small_q).map(lambda t: _place([t]))
    real_parts = parts.map(lambda q: [q[0], 0, q[2], 0])

    @settings(max_examples=500, deadline=None)
    @given(parts, st.one_of(one_part, st.just([0, 0, 0, 0]), parts))
    def test_product(self, xs, ys):
        assert_matches(ExactScalar(*xs) * ExactScalar(*ys),
                       RefScalar(*xs) * RefScalar(*ys))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(parts, real_parts, one_part))
    def test_sign_flips_and_inverse(self, xs):
        x, rx = ExactScalar(*xs), RefScalar(*xs)
        assert_matches(x.conjugate(), rx.conjugate())
        assert_matches(-x, RefScalar(0, 0, 0, 0) - rx)
        if any(rx.q):
            assert_matches(x.inverse(), rx.inverse())


class TestRepresentation:
    def test_zero_and_one_are_canonical(self):
        assert ZERO.ints == (0, 0, 0, 0, 1)
        assert ONE.ints == (1, 0, 0, 0, 1)
        assert INV_SQRT2.ints == (0, 0, 1, 0, 2)

    def test_reduction_to_lowest_terms(self):
        x = ExactScalar(frac(2, 4), frac(-6, 8), frac(0), frac(10, 4))
        assert x.ints == (2, -3, 0, 10, 4)
        assert (x + x).ints == (2, -3, 0, 10, 2)
        assert (x - x).ints == (0, 0, 0, 0, 1)

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-7, 3),
                                   Fraction(5), 0, 1, -4])
    def test_rationals_equal_and_hash_as_int_or_fraction(self, q):
        x = ExactScalar(q)
        assert x == q and q == x
        assert hash(x) == hash(q)
        assert real_part(x) == q and type(real_part(x)) is Fraction

    def test_irrational_never_equals_a_rational(self):
        assert INV_SQRT2 != Fraction(1, 2)
        assert I != 1

    def test_copy_and_pickle_round_trip(self):
        x = ExactScalar(frac(1, 2), frac(-3), frac(0), frac(2, 7))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert y.ints == x.ints and type(y) is ExactScalar

    def test_repr_shows_fraction_coefficients(self):
        assert repr(INV_SQRT2) == ("ExactScalar(q0=Fraction(0, 1), q1=Fraction(0, 1), "
                                   "q2=Fraction(1, 2), q3=Fraction(0, 1))")

    @pytest.mark.parametrize("name", ["ints", "q0", "q3", "extra"])
    def test_attributes_cannot_be_set(self, name):
        x = ExactScalar(frac(1, 2))
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x.ints == (1, 0, 0, 0, 2)


class TestBackend:
    def test_lookup_returns_the_instances(self):
        assert amp.backend("exact") is amp.EXACT
        assert amp.backend("float") is amp.FLOAT
        assert amp.backend(amp.FLOAT) is amp.FLOAT

    @pytest.mark.parametrize("name", ["symbolic", "EXACT", "", None, ["exact"]])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ConfigError, match="unknown backend"):
            amp.backend(name)

    def test_a_backend_is_its_name(self):
        assert amp.EXACT == "exact" and hash(amp.FLOAT) == hash("float")
        assert str(amp.FLOAT) == "float" and f"{amp.EXACT}" == "exact"
        assert json.dumps(amp.EXACT) == '"exact"'
        assert json.dumps({"backend": amp.FLOAT}) == '{"backend": "float"}'

    def test_ratio_is_real(self):
        assert amp.EXACT.ratio(ONE, ExactScalar(4)) == Fraction(1, 4)
        assert type(amp.EXACT.ratio(ONE, ExactScalar(4))) is Fraction
        assert amp.FLOAT.ratio(complex(1.0), complex(4.0)) == 0.25
