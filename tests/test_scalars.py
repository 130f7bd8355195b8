"""Field arithmetic in Q(q_1,...,q_m) and the signed-monomial subgroup."""

import random
from fractions import Fraction

import pytest

from cglkit import scalars
from cglkit.errors import DivisionByZero, ExponentOverflow, NotAMonomial, ParseError
from cglkit.parsing import format_scalar, parse_scalar
from cglkit.scalars import LaurentFraction, ParameterSpace, SignedMonomial

SP = ParameterSpace(("q",))
SP2 = ParameterSpace(("lam", "p12"))


def rand_fraction(rng, space, allow_zero=True):
    """Random Laurent polynomial quotient with small support."""
    def rand_poly(can_be_zero):
        terms = {}
        for _ in range(rng.randint(0 if can_be_zero else 1, 3)):
            exps = tuple(rng.randint(-2, 2) for _ in range(space.m))
            terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return terms

    num = rand_poly(allow_zero)
    den = rand_poly(False)
    while not any(den.values()):
        den = rand_poly(False)
    try:
        return LaurentFraction(space, num, den)
    except DivisionByZero:
        return LaurentFraction.one(space)


def test_parameter_space_lookup():
    assert SP.m == 1
    assert SP.index("q") == 0
    assert SP2.index("p12") == 1
    assert SP.zero_exps() == (0,)
    with pytest.raises(ValueError):
        SP.index("nope")


def test_field_laws_random():
    rng = random.Random(20240817)
    for space in (SP, SP2):
        for _ in range(40):
            a = rand_fraction(rng, space)
            b = rand_fraction(rng, space)
            c = rand_fraction(rng, space)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero
            assert a + 0 == a
            assert a * 1 == a
            if not b.is_zero:
                assert (a / b) * b == a
                assert b * b.inverse() == 1


def test_equality_by_value_not_representation():
    q = LaurentFraction.parameter(SP, "q")
    assert (q**2 - 1) / (q - 1) == q + 1
    assert (q**3 - q) / (q**2 - 1) == q
    # distinct values stay distinct
    assert (q + 1) / (q - 1) != q + 1
    assert q != q + 1


def test_gcd_canonicalization():
    q = LaurentFraction.parameter(SP, "q")
    assert str((q**3 - q) / (q**2 - 1)) == "q"
    assert str((q * q - 2 * q + 1) / (q - 1)) == "q - 1"
    lam = LaurentFraction.parameter(SP2, "lam")
    p = LaurentFraction.parameter(SP2, "p12")
    assert str((lam * p - p) / (lam - 1)) == "p12"
    # Laurent shifts participate in the cancellation
    assert (q**-2 - 1) / (q**-1 - 1) == (q + 1) / q


def test_division_by_zero():
    q = LaurentFraction.parameter(SP, "q")
    with pytest.raises(DivisionByZero):
        q / LaurentFraction.zero(SP)
    with pytest.raises(DivisionByZero):
        LaurentFraction.zero(SP).inverse()
    with pytest.raises(DivisionByZero):
        LaurentFraction(SP, {(0,): Fraction(1)}, {})


def test_fraction_is_unhashable():
    q = LaurentFraction.parameter(SP, "q")
    with pytest.raises(TypeError):
        hash(q)


def test_str_frozen_forms():
    q = LaurentFraction.parameter(SP, "q")
    assert str(q) == "q"
    assert str(q**-1) == "q^-1"
    assert str(1 - q**2) == "-q^2 + 1"
    assert str((q * q) / (q * q - 1)) == "(q^2)/(q^2 - 1)"
    assert str(-(q - q**-1)) == "-q + q^-1"
    assert str(LaurentFraction.zero(SP)) == "0"
    assert str(LaurentFraction.from_rational(SP, Fraction(-3, 2))) == "-3/2"
    assert str(q**2 / 3) == "1/3*q^2"
    lam = LaurentFraction.parameter(SP2, "lam")
    p = LaurentFraction.parameter(SP2, "p12")
    assert str(lam**-2 * p**4) == "lam^-2*p12^4"


def test_parse_scalar_roundtrip():
    rng = random.Random(77)
    for space in (SP, SP2):
        for _ in range(30):
            v = rand_fraction(rng, space)
            assert parse_scalar(format_scalar(v), space) == v


def test_parse_scalar_values():
    assert parse_scalar("q^-1", SP) == LaurentFraction.parameter(SP, "q").inverse()
    q = LaurentFraction.parameter(SP, "q")
    assert parse_scalar("-(q - q^-1)", SP) == q**-1 - q
    assert parse_scalar("2/3 * q^2", SP) == q**2 * Fraction(2, 3)
    assert parse_scalar("(q+1)*(q-1)", SP) == q**2 - 1
    assert parse_scalar("1/(q-1)", SP) == (q - 1).inverse()


def test_signed_monomial_group_ops():
    q = SignedMonomial.parameter(SP, "q")
    assert (q * q.inverse()).is_one
    assert q**3 == SignedMonomial(SP, 1, (3,))
    assert q**-2 == SignedMonomial(SP, 1, (-2,))
    neg = SignedMonomial.minus_one(SP)
    assert (neg * neg).is_one
    assert str(q**-2) == "q^-2"
    assert str(neg * q) == "-q"
    with pytest.raises(ValueError):
        SignedMonomial(SP, 0, (0,))


def test_signed_monomial_operations_match_the_checking_constructor():
    """Products, inverses and powers are built unchecked; they must equal the constructor's values."""
    rng = random.Random(20261019)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    for space in (SP, SP2):
        def rand_mono():
            exps = tuple(rng.randint(-3, 3) for _ in range(space.m))
            return SignedMonomial(space, rng.choice(coeffs), exps)

        for _ in range(100):
            a, b = rand_mono(), rand_mono()
            j, k = rng.randint(-3, 3), rng.randint(-3, 3)
            cases = [
                (a * b, a.coeff * b.coeff, [x + y for x, y in zip(a.exps, b.exps)]),
                (a.inverse(), 1 / a.coeff, [-x for x in a.exps]),
                (a**k, a.coeff**k, [k * x for x in a.exps]),
                (
                    scalars._power_product(space, [a, b], [j, k]),
                    a.coeff**j * b.coeff**k,
                    [j * x + k * y for x, y in zip(a.exps, b.exps)],
                ),
            ]
            for got, coeff, exps in cases:
                want = SignedMonomial(space, coeff, exps)
                assert got == want and hash(got) == hash(want)
                assert type(got.coeff) is Fraction and type(got.exps) is tuple
    # an equal space built separately multiplies; a different one raises
    q = SignedMonomial.parameter(SP, "q")
    assert q * SignedMonomial.parameter(ParameterSpace(("q",)), "q") == q**2
    with pytest.raises(ValueError):
        q * SignedMonomial.parameter(SP2, "lam")
    with pytest.raises(ValueError):
        SignedMonomial.parameter(SP2, "lam") * q


def test_root_of_unity():
    q = SignedMonomial.parameter(SP, "q")
    assert SignedMonomial.one(SP).is_root_of_unity()
    assert SignedMonomial.minus_one(SP).is_root_of_unity()
    assert not q.is_root_of_unity()
    assert not (SignedMonomial.minus_one(SP) * q).is_root_of_unity()
    assert not SignedMonomial(SP, 2, (0,)).is_root_of_unity()


def test_monomial_log():
    q = SignedMonomial.parameter(SP, "q")
    assert q.monomial_log() == (0, (1,))
    assert (SignedMonomial.minus_one(SP) * q**-3).monomial_log() == (1, (-3,))
    with pytest.raises(NotAMonomial):
        SignedMonomial(SP, 2, (0,)).monomial_log()


def test_as_monomial():
    q = LaurentFraction.parameter(SP, "q")
    assert (-2 * q**2).as_monomial() == SignedMonomial(SP, -2, (2,))
    assert (q**-1).as_monomial().to_fraction() == q**-1
    with pytest.raises(NotAMonomial):
        (q + 1).as_monomial()
    with pytest.raises(NotAMonomial):
        LaurentFraction.zero(SP).as_monomial()


# -- the Laurent-polynomial fast path against the general constructor --


def _raw_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return out


def _raw_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _num(x):
    """x.num keyed by exponent tuples, through the unpacking helper of printing."""
    return scalars._unpacked(x.space, x.num)


def _den(x):
    return scalars._unpacked(x.space, x.den)


def _assert_canonical(x):
    for c in list(x.num.values()) + list(x.den.values()):
        assert type(c) in (int, Fraction), type(c)
        assert type(c) is int or c.denominator != 1, c


def rand_laurent(rng, space):
    """Random Laurent polynomial or, one time in four, a random quotient."""
    if rng.random() < 0.25:
        return rand_fraction(rng, space)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    terms = {}
    for _ in range(rng.randint(0, 4)):
        terms[tuple(rng.randint(-2, 2) for _ in range(space.m))] = rng.choice(coeffs)
    return LaurentFraction(space, terms)


def rand_monomial(rng, space):
    """Random Laurent monomial; one time in five the unit, one in five zero."""
    draw = rng.random()
    if draw < 0.2:
        return LaurentFraction.one(space)
    if draw < 0.4:
        return LaurentFraction.zero(space)
    coeff = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])
    return LaurentFraction.from_monomial(space, coeff, [rng.randint(-2, 2) for _ in range(space.m)])


def test_fast_path_matches_general_constructor():
    rng = random.Random(20261018)
    for space in (SP, SP2):
        for _ in range(150):
            a, b = rand_laurent(rng, space), rand_laurent(rng, space)
            # monomial, unit and zero operands of *, in both operand orders
            mono = rand_monomial(rng, space)
            for x, y in ((mono, a), (a, mono), (mono, mono)):
                want = LaurentFraction(
                    space, _raw_mul(_num(x), _num(y)), _raw_mul(_den(x), _den(y))
                )
                got = x * y
                _assert_canonical(got)
                assert (got.num, got.den) == (want.num, want.den)
            cross = _raw_mul(_den(a), _den(b))
            minus_a_den = {e: -c for e, c in _den(a).items()}
            expected = {
                "a*b": LaurentFraction(space, _raw_mul(_num(a), _num(b)), cross),
                "a+b": LaurentFraction(
                    space, _raw_add(_raw_mul(_num(a), _den(b)), _raw_mul(_num(b), _den(a))), cross
                ),
                "a-b": LaurentFraction(
                    space,
                    _raw_add(_raw_mul(_num(a), _den(b)), _raw_mul(_num(b), minus_a_den)),
                    cross,
                ),
                "-a": LaurentFraction(space, {e: -c for e, c in _num(a).items()}, _den(a)),
            }
            got = {"a*b": a * b, "a+b": a + b, "a-b": a - b, "-a": -a}
            for op, value in got.items():
                _assert_canonical(value)
                assert (value.num, value.den) == (expected[op].num, expected[op].den), op
            # == against cross-multiplication, on equal and unequal pairs; a*m/m
            # comes back through the general constructor's GCD step
            m = rand_laurent(rng, space)
            if m.is_laurent and not m.is_zero:
                same = LaurentFraction(
                    space, _raw_mul(_num(a), _num(m)), _raw_mul(_den(a), _num(m))
                )
                assert (same.num, same.den) == (a.num, a.den)
                assert same == a
            for x, y in ((a, b), (b, a), (a, a)):
                by_cross = _raw_mul(_num(x), _den(y)) == _raw_mul(_num(y), _den(x))
                assert (x == y) == by_cross
    # a monomial scaling Fraction coefficients onto integers gives ints
    two_q = LaurentFraction.from_monomial(SP, 2, (1,))
    halves = LaurentFraction(SP, {(0,): Fraction(1, 2), (2,): Fraction(-3, 2)})
    for product in (two_q * halves, halves * two_q):
        assert _num(product) == {(1,): 1, (3,): -3}
        assert all(type(c) is int for c in product.num.values())
    # operands from different spaces still raise, whatever their shape
    lam = LaurentFraction.parameter(SP2, "lam")
    for x in (two_q, halves, LaurentFraction.one(SP)):
        for op in (lambda u, v: u * v, lambda u, v: u + v):
            with pytest.raises(ValueError):
                op(x, lam)
            with pytest.raises(ValueError):
                op(lam, x)


def test_coefficients_are_int_or_fraction():
    q = LaurentFraction.parameter(SP, "q")
    half = LaurentFraction.from_monomial(SP, Fraction(1, 2), (1,))
    assert type(_num(half + half)[(1,)]) is int
    assert type(_num(half * 2)[(1,)]) is int
    assert type(_num(half * q**-1)[(0,)]) is Fraction
    assert type(_num(LaurentFraction(SP, {(0,): Fraction(4, 2)}))[(0,)]) is int
    assert type(_num((q**2 - 1) / (2 * q - 2))[(1,)]) is Fraction
    with pytest.raises(TypeError):
        LaurentFraction.from_rational(SP, 0.5)
    with pytest.raises(TypeError):
        LaurentFraction(SP, {(0,): 0.5})
    # conversions out of the field stay Fraction
    assert type((3 * q**2).as_monomial().coeff) is Fraction
    assert type((half * 2 * q**-1).as_monomial().coeff) is Fraction
    assert type(LaurentFraction.from_rational(SP, 7).as_rational()) is Fraction
    assert type((half / half).as_rational()) is Fraction
    assert type(LaurentFraction.zero(SP).as_rational()) is Fraction
    assert (half + half).is_laurent and not (q / (q + 1)).is_laurent


# -- the unit shortcut of is_one and * --


def _unreduced_one(space):
    """A true quotient num/num past the 4096 GCD cap, so it stays unreduced."""
    q = LaurentFraction.parameter(space, space.names[0])
    num = _num((1 + q) ** 64)
    assert len(num) * len(num) > 4096
    return LaurentFraction(space, num, num)


def test_multiplying_by_one_returns_the_other_operand():
    q = LaurentFraction.parameter(SP, "q")
    one = LaurentFraction.one(SP)
    for x in (q**2 - 3 * q**-1, (q + 1) / (q - 2), LaurentFraction.zero(SP)):
        for product in (x * 1, 1 * x, x * one, one * x, x * Fraction(1)):
            assert product == x
            assert (product.num, product.den) == (x.num, x.den)
        assert x * one is x and one * x is x
    # an unreduced num/num past the GCD cap is 1 as well
    big_one = _unreduced_one(SP)
    quotient = (q + 1) / (q - 2)
    assert quotient * big_one is quotient and big_one * q is q
    assert (q + big_one) * quotient == (q + 1) * quotient


def test_is_one():
    q = LaurentFraction.parameter(SP, "q")
    a_over_b = (q + 1) / (q - 2)
    assert not a_over_b.is_laurent
    assert LaurentFraction.from_rational(SP, 1).is_one
    assert LaurentFraction.one(SP2).is_one
    assert (a_over_b * ((q - 2) / (q + 1))).is_one
    for value in (-1, 2, q, q**-1, a_over_b, LaurentFraction.zero(SP)):
        if not isinstance(value, LaurentFraction):
            value = LaurentFraction.from_rational(SP, value)
        assert not value.is_one, value
    # a true quotient equal to 1 is decided by value
    big_one = _unreduced_one(SP)
    assert not big_one.is_laurent and big_one.is_one and big_one == 1
    assert not (big_one + 1).is_one and not (big_one * q).is_one


# -- exact division by a Laurent binomial --


def rand_binomial(rng, space):
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    while True:
        e1, e2 = (tuple(rng.randint(-2, 2) for _ in range(space.m)) for _ in range(2))
        if e1 != e2:
            return LaurentFraction(space, {e1: rng.choice(coeffs), e2: rng.choice(coeffs)})


def test_exact_division_by_a_binomial_inverts_the_product(monkeypatch):
    """(a b) / b == a by synthetic division, which never reaches the GCD."""

    def no_gcd(*args):
        raise AssertionError("an exact binomial division ran the GCD")

    rng = random.Random(20261019)
    cases = [
        (rand_laurent(rng, space), rand_binomial(rng, space))
        for space in (SP, SP2)
        for _ in range(200)
    ]
    monkeypatch.setattr(scalars, "_poly_gcd_int", no_gcd)
    for a, b in cases:
        if not a.is_laurent:
            continue
        quotient = (a * b) / b
        _assert_canonical(quotient)
        assert quotient.is_laurent
        assert (quotient.num, quotient.den) == (a.num, a.den)
        assert (a * b * b) / b / b == a


def test_inexact_division_by_a_binomial_matches_the_gcd_path():
    rng = random.Random(20261020)
    inexact = 0
    for space in (SP, SP2):
        for _ in range(200):
            a, b = rand_laurent(rng, space), rand_binomial(rng, space)
            if not a.is_laurent:
                continue
            got = a / b
            reduced = LaurentFraction(space, _num(a), _num(b))
            _assert_canonical(got)
            assert (got.num, got.den) == (reduced.num, reduced.den)
            assert str(got) == str(reduced)
            inexact += not got.is_laurent
    assert inexact > 200


def test_binomial_quotients_are_canonical():
    q = LaurentFraction.parameter(SP, "q")
    half = Fraction(1, 2)
    # a non-unit leading coefficient runs the recurrence in Fractions, and an
    # integral result comes back with int coefficients
    quotient = (half * q**2 - half) / (half * q - half)
    assert str(quotient) == "q + 1"
    assert all(type(c) is int for c in quotient.num.values())
    assert type(_num((q**2 - 1) / (2 * q - 2))[(1,)]) is Fraction
    assert _num((q**3 + 1) / (q**-1 + 1)) == {(3,): 1, (2,): -1, (1,): 1}
    lam = LaurentFraction.parameter(SP2, "lam")
    p = LaurentFraction.parameter(SP2, "p12")
    assert str((lam**2 * p**-1 - p) / (lam * p**-1 - 1)) == "lam + p12"
    assert (LaurentFraction.zero(SP) / (q - 1)).is_zero


def test_exact_binomial_division_past_the_gcd_cap_is_laurent():
    """A numerator of more than 2,048 terms puts num x den past the 4096 cap
    of the general path, which would return it unreduced; the exact
    synthetic division returns the Laurent quotient."""
    q = LaurentFraction.parameter(SP, "q")
    a = LaurentFraction(SP, {(i,): i + 1 for i in range(2100)})
    product = a * (q - 1)
    assert len(product.num) > 2048
    quotient = product / (q - 1)
    assert quotient.is_laurent
    assert (quotient.num, quotient.den) == (a.num, a.den)
    # an inexact division of the same size still takes the general path
    assert not (product / (q - 2)).is_laurent


# -- packed exponent keys --


def _space(m):
    return ParameterSpace(tuple(f"q{i}" for i in range(m)))


def _clean(d):
    return {e: c for e, c in d.items() if c}


def test_wrong_length_exponents_raise():
    for call in (
        lambda: LaurentFraction.from_monomial(SP, 1, (1, 2)),
        lambda: LaurentFraction.from_monomial(SP2, 0, (1,)),
        lambda: LaurentFraction(SP, {(1, 2): 3}),
        lambda: LaurentFraction(SP2, {(0, 0): 1}, {(1,): 1}),
    ):
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            call()


def test_keys_for_one_and_no_parameter_are_trivial():
    assert SP.pack((5,)) == 5 and SP.pack((-3,)) == -3 and SP.unpack(-3) == (-3,)
    empty = _space(0)
    assert empty.pack(()) == 0 and empty.unpack(0) == ()
    assert LaurentFraction.one(SP2).num == {0: 1}


@pytest.mark.parametrize("m", [1, 2, 7, 16])
def test_exponents_at_the_field_limit_round_trip_or_raise(m):
    space = _space(m)
    top = 2**31 - 1
    rng = random.Random(20261021 + m)
    vectors = [(top,) * m, (-top,) * m, tuple(top if i % 2 else -top for i in range(m))]
    vectors += [tuple(rng.choice((top, -top, 0, 1, -1)) for _ in range(m)) for _ in range(20)]
    for exps in vectors:
        assert space.unpack(space.pack(exps)) == exps
        assert all(scalars._field(space.pack(exps), v) == e for v, e in enumerate(exps))
        assert LaurentFraction.from_monomial(space, -2, exps).as_monomial().exps == exps
    for bad in (2**31, -(2**31)):
        for v in range(m):
            exps = [0] * m
            exps[v] = bad
            with pytest.raises(ExponentOverflow):
                space.pack(exps)
            with pytest.raises(ExponentOverflow):
                LaurentFraction.from_monomial(space, 1, exps)


def test_parse_scalar_refuses_an_exponent_past_the_limit():
    assert parse_scalar("q^2147483647", SP).as_monomial().exps == (2**31 - 1,)
    assert parse_scalar("q^-2147483647", SP).as_monomial().exps == (-(2**31) + 1,)
    for text in ("q^2147483648", "q^-2147483648", "(q^2)^1073741824", "(q + 1)^4294967296"):
        with pytest.raises(ParseError):
            parse_scalar(text, SP)


def test_a_power_past_the_limit_raises_before_it_is_computed(monkeypatch):
    q = LaurentFraction.parameter(SP, "q")
    lam = LaurentFraction.parameter(SP2, "lam")
    p = LaurentFraction.parameter(SP2, "p12")
    cases = [
        (q, 2**31),
        (q, -(2**31)),
        (q**3, 2**30),
        ((q + 1) / (q**-2 - 1), 2**30),
        (lam * p**-5, 2**31 // 5 + 1),
    ]

    def no_pow(*args):
        raise AssertionError("the power was computed")

    monkeypatch.setattr(scalars, "_dict_pow", no_pow)
    for base, k in cases:
        with pytest.raises(ExponentOverflow):
            base**k


@pytest.mark.parametrize("m", [0, 1, 2, 7, 16])
def test_packed_arithmetic_matches_the_tuple_reference(m):
    space = _space(m)
    rng = random.Random(20261022 + m)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]

    def rand_exps():
        # at most three parameters per term keep the multivariate GCD small
        exps = [0] * m
        for v in rng.sample(range(m), min(m, 3)):
            exps[v] = rng.randint(-2, 2)
        return tuple(exps)

    def rand_terms(low, high):
        return {rand_exps(): rng.choice(coeffs) for _ in range(rng.randint(low, high))}

    exact = quotients = 0
    for _ in range(40):
        a_t, b_t = rand_terms(0, 3), rand_terms(0, 3)
        a, b = LaurentFraction(space, a_t), LaurentFraction(space, b_t)
        assert _num(a) == _clean(a_t) and _den(a) == {(0,) * m: 1}
        assert _num(a * b) == _clean(_raw_mul(a_t, b_t))
        assert _num(a + b) == _clean(_raw_add(a_t, b_t))
        assert (a == b) == (_clean(a_t) == _clean(b_t))
        assert a == LaurentFraction(space, dict(reversed(list(a_t.items()))))
        if m:
            # division by a binomial c: exact on a*c, and a/c against cross-multiplication
            c_t = rand_terms(2, 2)
            while len(c_t) < 2:
                c_t = rand_terms(2, 2)
            c = LaurentFraction(space, c_t)
            quotient = LaurentFraction(space, _raw_mul(a_t, c_t)) / c
            assert quotient.is_laurent and _num(quotient) == _clean(a_t)
            exact += not a.is_zero
            inexact = a / c
            assert _clean(_raw_mul(_num(inexact), c_t)) == _clean(_raw_mul(a_t, _den(inexact)))
        # a quotient whose common factor the GCD cancels
        g_t = rand_terms(2, 3)
        if not b.is_zero and len(_clean(g_t)) > 1:
            value = LaurentFraction(space, _raw_mul(a_t, g_t), _raw_mul(b_t, g_t))
            assert _clean(_raw_mul(_num(value), b_t)) == _clean(_raw_mul(a_t, _den(value)))
            assert (value.num, value.den) == ((a / b).num, (a / b).den)
            quotients += not value.is_laurent
    assert quotients > 0 or m == 0
    assert exact > 0 or m == 0
