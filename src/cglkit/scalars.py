"""Exact scalars over the rational function field Q(q_1, ..., q_m).

Two representations live here:

* ``LaurentFraction`` -- a quotient num/den of multivariate Laurent
  polynomials.  Construction folds single-term denominators into the
  numerator, cancels the multivariate polynomial GCD of numerator and
  denominator (computed over Z), and removes common rational content and
  common pure-monomial factors, so ``(q^2 - 1)/(q - 1)`` becomes ``q + 1``.
  After construction ``len(den) == 1`` holds exactly when the value is a
  Laurent polynomial, and then ``den`` is the constant 1.  Such values take
  one fast path: ``+`` and ``*`` coerce only an operand that is not a
  ``LaurentFraction`` on the same space, ``*`` returns the other operand
  when one side is 1 (``num == den``), and both build their result straight
  from the sparse-dict sum or product, with no cleaning, GCD or content work.
  ``==`` compares the numerator dicts.  A Laurent polynomial divided by a
  Laurent binomial is tried first by synthetic division along the binomial's
  exponent line (``_divide_by_binomial``), which needs no GCD; an exact
  quotient comes back as a Laurent polynomial of any size.  Every other
  division, and an inexact one, takes the general path, as do true quotients
  (``len(den) > 1``), except for unary minus, which negates the numerator
  of the reduced value.  The general path skips its GCD when
  len(num) * len(den) exceeds 4096, so equal quotients need not be
  identical, and ``==`` decides them by cross-multiplication.

* ``SignedMonomial`` -- an element of the subgroup of K^x generated by the
  parameters together with nonzero rationals, i.e. ``c * q1^e1 * ... * qm^em``.
  Commutation scalars and torus-element components are restricted to this
  group so that the additive logarithm into Z/2 x Z^m exists.  Its ``coeff``
  is always a ``Fraction``.  Only the constructor checks its arguments: group
  operations build their valid results with ``_make``, and products and
  ``_power_product`` skip Fraction arithmetic on the coefficients 1 and +-1
  that every preset's scalars have.

Laurent polynomials are sparse dicts mapping one packed int key per term to a
nonzero coefficient.  The key of q1^e1 ... qm^em is sum_i e_i * 2^(64 i)
(``ParameterSpace.pack``), one balanced 64-bit field per exponent, so a
product's key is the sum of its factors' keys, the unit's key is 0, and with
m = 1 the key is the exponent itself.  ``_field`` reads one coordinate, and a
shift along q_v adds k << 64 v.  No carry between fields can pass silently:
``pack`` refuses |e| >= 2^31, and ``**`` refuses a power that would reach that
bound before computing it.  Products and sums only add exponents, the shifts
of ``_reduce`` subtract them, ``_divide_by_binomial`` stays within three times
its operands' range, and the GCD divides shifted operands, whose dense
univariate lists are as long as their degrees.  So a field would reach 2^63
only after more than 2^32 chained products.  Only printing (``_unpacked``),
``as_monomial`` and ``_reduce``'s lead-term sign rule unpack a key.
(PBW polynomials keep exponent-tuple keys.)  Coefficients have one canonical
form: ``int`` when the coefficient is integral and ``Fraction`` otherwise,
never ``float``.  Integer coefficients keep the inner loop of the product in
machine-size int arithmetic; every division of coefficients goes through
``Fraction``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import DivisionByZero, ExponentOverflow, NotAMonomial

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_W = 64  # bits per exponent field of a packed key
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_LIMIT = 1 << 31  # |exponent| bound of pack and **


def _field(key, v):
    """Exponent v of a packed key: rounding off the lower fields undoes their borrow."""
    s = _W * v
    return (((key + (_HALF << s) + (1 << s >> 1)) >> s) & _MASK) - _HALF


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered tuple of parameter names for K = Q(q_1, ..., q_m).

    m = 0 is allowed and gives K = Q.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("parameter names must be distinct")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
        object.__setattr__(self, "_radix", tuple(1 << (_W * i) for i in range(len(self.names))))

    @property
    def m(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * len(self.names)

    def pack(self, exps) -> int:
        """The int key sum_i e_i * 2^(64 i) of an exponent vector of length m."""
        if len(exps) != len(self._radix):
            raise ValueError("exponent tuple has wrong length")
        key = 0
        for e, r in zip(exps, self._radix):
            if not -_LIMIT < e < _LIMIT:
                raise ExponentOverflow(f"exponent {e} is out of range (|e| < 2^31)")
            key += e * r
        return key

    def unpack(self, key) -> tuple[int, ...]:
        return tuple(_field(key, v) for v in range(len(self._radix)))


def _coeff(value):
    """Canonical coefficient: int when integral, Fraction otherwise."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _div(a, b):
    # ``a / b`` on two ints would give a float
    return _coeff(Fraction(a, b))


# -- sparse Laurent polynomial helpers (dict packed key -> coefficient) --


def _dict_clean(d):
    return {e: _coeff(c) for e, c in d.items() if c != 0}

def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out

def _dict_neg(a):
    return {e: -c for e, c in a.items()}

def _dict_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out

def _divide_by_binomial(a, b, m):
    """a / b for a two-term b by synthetic division, or None when inexact.

    With b = c1 X^e1 (1 - r X^d), r = -c2/c1 and d = e2 - e1, the quotient on
    each line f + t d of a / (c1 X^e1) obeys q_t = a_t + r q_(t-1), and the
    division is exact when the last q_t on every line is 0.  Coefficients stay
    ints when c1 is +-1 and a and c2 are integral.  A line is found along the
    coordinate i where |d_i| is largest, so its base point f - t d stays within
    three times the operands' exponent range.
    """
    (e1, c1), (e2, c2) = b.items()
    unit = c1 in (1, -1)
    r = -c2 * c1 if unit else Fraction(-c2) / c1
    d = e2 - e1
    i = max(range(m), key=lambda v: abs(_field(d, v)))
    di = _field(d, i)
    lines = {}
    for e, c in a.items():
        f = e - e1
        t = _field(f, i) // di
        lines.setdefault(f - t * d, {})[t] = c * c1 if unit else Fraction(c) / c1
    out = {}
    for base, line in lines.items():
        q = 0
        for t in range(min(line), max(line) + 1):
            q = line.get(t, 0) + r * q
            if q:
                out[base + t * d] = q
        if q:
            return None
    return out


def _dict_pow(a, k):
    # callers guarantee k >= 1
    if k < 1:
        raise ValueError("power must be >= 1 here")
    result = None
    base = a
    while True:
        if k & 1:
            result = dict(base) if result is None else _dict_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _dict_mul(base, base)


def _term_sort_key(item):
    e, _ = item
    return (sum(e), e)


def _content(coeffs) -> Fraction:
    # gcd of numerators over lcm of denominators; positive by construction
    return Fraction(gcd(*(c.numerator for c in coeffs)), lcm(*(c.denominator for c in coeffs)))


# -- polynomial gcd on packed-key polynomials (nonnegative exponents) --
#
# Runs over Z with primitive pseudo-remainder sequences; monic Euclid over Q
# squares coefficient sizes at every step and stalls on moderate inputs.


def _poly_vars(a, m):
    return [i for i in range(m) if any(_field(e, i) for e in a)]


def _int_primitive(a):
    # integer coefficients with content 1 and positive coefficient at the
    # largest key (the gcd is only defined up to sign, and _reduce fixes it)
    if not a:
        return {}
    g = gcd(*a.values())
    if a[max(a)] < 0:
        g = -g
    return {e: c // g for e, c in a.items()}


def _lead_in_var(p, v):
    d = max(_field(e, v) for e in p)
    top = d << (_W * v)
    return d, {e - top: c for e, c in p.items() if _field(e, v) == d}


def _gcd_univar_int(a, b, var):
    # primitive Euclid over Z on coefficient lists (low to high degree)
    def listify(p):
        out = [0] * (max(_field(e, var) for e in p) + 1)
        for e, c in p.items():
            out[_field(e, var)] = c
        return out

    def primitive(f):
        g = gcd(*f)
        return [c // g for c in f]

    f, g = primitive(listify(a)), primitive(listify(b))
    while g:
        r = list(f)
        while r and len(r) >= len(g):
            d = gcd(r[-1], g[-1])
            ma, mb = g[-1] // d, r[-1] // d
            r = [ma * c for c in r]
            shift = len(r) - len(g)
            for i, c in enumerate(g):
                r[i + shift] -= mb * c
            while r and r[-1] == 0:
                r.pop()
            if r:
                r = primitive(r)
        f, g = g, r
    if f[-1] < 0:
        f = [-c for c in f]
    return {i << (_W * var): c for i, c in enumerate(f) if c}


def _pseudo_rem_int(f, g, v):
    dg, gl = _lead_in_var(g, v)
    r = dict(f)
    while r and max(_field(e, v) for e in r) >= dg:
        dr, rl = _lead_in_var(r, v)
        shift = (dr - dg) << (_W * v)
        shifted = {e + shift: c for e, c in g.items()}
        r = _dict_add(_dict_mul(gl, r), _dict_neg(_dict_mul(rl, shifted)))
        cont = gcd(*r.values())
        if cont > 1:
            r = {e: c // cont for e, c in r.items()}
    return r


def _poly_div_exact_int(a, g, m):
    """Exact division a / g over Z; divisibility guaranteed by the callers."""
    if not a:
        return {}
    gv = _poly_vars(g, m)
    if not gv:
        ((_, c0),) = g.items()
        return {e: c // c0 for e, c in a.items()}
    v = gv[-1]
    dg, gl = _lead_in_var(g, v)
    r = dict(a)
    out = {}
    while r:
        dr, rl = _lead_in_var(r, v)
        q = _poly_div_exact_int(rl, gl, m)
        shift = (dr - dg) << (_W * v)
        qs = {e + shift: c for e, c in q.items()}
        out = _dict_add(out, qs)
        r = _dict_add(r, _dict_neg(_dict_mul(qs, g)))
    return out


def _content_in_var_int(a, v, m):
    # gcd of the coefficient polynomials of a viewed in the variable v
    parts = {}
    for e, c in a.items():
        d = _field(e, v)
        parts.setdefault(d, {})[e - (d << (_W * v))] = c
    g = {}
    for coeff in parts.values():
        g = _poly_gcd_int(g, coeff, m)
        if len(g) == 1 and 0 in g:
            break
    return g


def _poly_gcd_int(a, b, m):
    if not a:
        return _int_primitive(b)
    if not b:
        return _int_primitive(a)
    va, vb = _poly_vars(a, m), _poly_vars(b, m)
    joint = sorted(set(va) | set(vb))
    if not joint:
        return {0: 1}
    if len(joint) == 1 and len(va) == 1 and len(vb) == 1:
        return _gcd_univar_int(a, b, joint[0])
    # main variable: smallest worst-case degree keeps the remainder chain short
    v = min(joint, key=lambda i: max(_field(e, i) for e in (*a, *b)))
    ca = _content_in_var_int(a, v, m)
    cb = _content_in_var_int(b, v, m)
    cont = _poly_gcd_int(ca, cb, m)
    pa = _poly_div_exact_int(a, ca, m)
    pb = _poly_div_exact_int(b, cb, m)
    while pb:
        r = _pseudo_rem_int(pa, pb, v)
        pa = pb
        pb = _poly_div_exact_int(r, _content_in_var_int(r, v, m), m) if r else {}
    pa = _poly_div_exact_int(pa, _content_in_var_int(pa, v, m), m)
    return _int_primitive(_dict_mul(cont, pa))


class LaurentFraction:
    """num/den with Laurent-polynomial numerator and denominator.

    Instances are immutable by convention (no mutating API), and ``num`` and
    ``den`` map packed int keys (``ParameterSpace.pack``) to canonical
    coefficients (int or Fraction).  The constructor takes dicts keyed by
    exponent tuples of length m and packs them.  When both operands
    are Laurent polynomials (``is_laurent``), arithmetic skips reduction and
    ``__eq__`` compares numerators, which are unique for such values.
    Otherwise ``__eq__`` cross-multiplies.  ``__hash__`` is disabled because
    quotients past the GCD cap can have different representations.
    """

    __slots__ = ("space", "num", "den")

    def __init__(self, space: ParameterSpace, num, den=None):
        pack = space.pack
        num = {pack(e): c for e, c in num.items()}
        den = {0: 1} if den is None else {pack(e): c for e, c in den.items()}
        n, d = self._reduce(space, num, den)
        _set_space(self, space)
        _set_num(self, n)
        _set_den(self, d)

    @classmethod
    def _reduced(cls, space, num, den):
        """The value num/den of packed-key dicts, cleaned and reduced by ``_reduce``."""
        return cls._trusted(space, *cls._reduce(space, num, den))

    @classmethod
    def _trusted(cls, space, num, den):
        """Build a value from a reduced packed num/den without ``_dict_clean`` or ``_reduce``.

        Either ``den`` is the constant 1 (``{0: 1}``) and ``num`` is canonical
        or a ``_dict_add``/``_dict_mul``/``_dict_neg``/``_divide_by_binomial``
        result of canonical dicts (zero-free, and integral only where Fraction
        arithmetic landed on an integer, which is turned back into an int
        here), or num/den is the negation of a reduced quotient.  The slots are
        written by their cached setters, past the ``__setattr__`` guard.
        """
        for e, c in num.items():
            if type(c) is Fraction and c.denominator == 1:
                num[e] = c.numerator
        self = _new(cls)
        _set_space(self, space)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, *args):
        raise AttributeError("LaurentFraction is immutable")

    @staticmethod
    def _reduce(space, num, den):
        num, den = _dict_clean(num), _dict_clean(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return {}, {0: 1}
        if len(den) > 1:
            # shift to nonnegative exponents, then cancel the polynomial gcd
            pool = list(num.items()) + list(den.items())
            low = sum(min(_field(e, i) for e, _ in pool) << (_W * i) for i in range(space.m))
            if low:
                num = {e - low: c for e, c in num.items()}
                den = {e - low: c for e, c in den.items()}
            if len(num) > 1 and len(num) * len(den) <= 4096:
                # one common integer scale: by Gauss's lemma the primitive gcd
                # divides both over Z, and the content step below drops the scale
                scale = lcm(*(c.denominator for _, c in pool))
                num_z = {e: int(c * scale) for e, c in num.items()}
                den_z = {e: int(c * scale) for e, c in den.items()}
                g = _poly_gcd_int(_int_primitive(num_z), _int_primitive(den_z), space.m)
                if len(g) > 1:
                    num = _dict_clean(_poly_div_exact_int(num_z, g, space.m))
                    den = _dict_clean(_poly_div_exact_int(den_z, g, space.m))
        if len(den) == 1:
            # fold a monomial denominator into the numerator
            (de, dc), = den.items()
            return {e - de: _div(c, dc) for e, c in num.items()}, {0: 1}
        # joint content reduction; the shift above already zeroed the common
        # monomial, and dividing by the gcd cannot restore one
        cont = _content([*num.values(), *den.values()])
        if cont != 1:
            num = {e: _div(c, cont) for e, c in num.items()}
            den = {e: _div(c, cont) for e, c in den.items()}
        # normalize the sign of the denominator's leading term
        lead = max(_unpacked(space, den).items(), key=_term_sort_key)
        if lead[1] < 0:
            num = _dict_neg(num)
            den = _dict_neg(den)
        return num, den

    # -- constructors --

    @classmethod
    def zero(cls, space):
        return cls._trusted(space, {}, {0: 1})

    @classmethod
    def one(cls, space):
        return cls._trusted(space, {0: 1}, {0: 1})

    @classmethod
    def from_rational(cls, space, value):
        coeff = _coeff(value)
        return cls._trusted(space, {0: coeff} if coeff else {}, {0: 1})

    @classmethod
    def from_monomial(cls, space, coeff, exps):
        key = space.pack(exps)
        coeff = _coeff(coeff)
        return cls._trusted(space, {key: coeff} if coeff else {}, {0: 1})

    @classmethod
    def parameter(cls, space, name):
        exps = [0] * space.m
        exps[space.index(name)] = 1
        return cls.from_monomial(space, 1, exps)

    # -- predicates --

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_laurent(self) -> bool:
        """True when the value is a Laurent polynomial (``den`` is 1)."""
        return len(self.den) == 1

    @property
    def is_one(self) -> bool:
        # num/den is 1 exactly when num == den, and both dicts are canonical; for
        # a Laurent value den is the constant 1, and a quotient past the GCD cap
        # can be an unreduced num/num
        return self.num == self.den

    def _coerce(self, other):
        if isinstance(other, LaurentFraction):
            if other.space is not self.space and other.space != self.space:
                raise ValueError("mixed parameter spaces")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentFraction.from_rational(self.space, other)
        if isinstance(other, SignedMonomial):
            return other.to_fraction()
        return NotImplemented

    # -- arithmetic --

    def __add__(self, other):
        if type(other) is not LaurentFraction or other.space is not self.space:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(self.den) == 1 == len(other.den):
            return LaurentFraction._trusted(self.space, _dict_add(self.num, other.num), self.den)
        if self.den == other.den:
            return LaurentFraction._reduced(self.space, _dict_add(self.num, other.num), self.den)
        return LaurentFraction._reduced(
            self.space,
            _dict_add(_dict_mul(self.num, other.den), _dict_mul(other.num, self.den)),
            _dict_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        # -num/den is reduced when num/den is: negating num changes neither the
        # gcd, the content, the monomial shift nor the sign of den's lead term
        return LaurentFraction._trusted(self.space, _dict_neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentFraction or other.space is not self.space:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.num == self.den:
            return other
        if other.num == other.den:
            return self
        if len(self.den) == 1 == len(other.den):
            return LaurentFraction._trusted(self.space, _dict_mul(self.num, other.num), self.den)
        return LaurentFraction._reduced(
            self.space, _dict_mul(self.num, other.num), _dict_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("division by zero scalar")
        if len(other.num) == 2 and self.is_laurent and other.is_laurent:
            quotient = _divide_by_binomial(self.num, other.num, self.space.m)
            if quotient is not None:
                return LaurentFraction._trusted(self.space, quotient, self.den)
        return LaurentFraction._reduced(
            self.space, _dict_mul(self.num, other.den), _dict_mul(self.den, other.num)
        )

    def __rtruediv__(self, other):
        return LaurentFraction.from_rational(self.space, other) / self

    def inverse(self):
        return 1 / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return LaurentFraction.one(self.space)
        keys = (*self.num, *self.den)
        top = max((abs(_field(e, v)) for e in keys for v in range(self.space.m)), default=0)
        if top * k >= _LIMIT:
            raise ExponentOverflow(f"power {k} takes an exponent out of range (|e| < 2^31)")
        return LaurentFraction._reduced(self.space, _dict_pow(self.num, k), _dict_pow(self.den, k))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_laurent and other.is_laurent:
            return self.num == other.num
        return _dict_mul(self.num, other.den) == _dict_mul(other.num, self.den)

    __hash__ = None

    # -- conversion --

    def as_monomial(self) -> "SignedMonomial":
        """Representation-level view as a signed monomial.

        Requires the reduced numerator to be a single term (the denominator is
        trivial after reduction in that case).  Mathematically-monomial values
        hidden behind an unreduced quotient raise NotAMonomial.
        """
        if len(self.num) != 1 or not self.is_laurent:
            raise NotAMonomial(f"not a monomial: {self}")
        (key, c), = self.num.items()
        return SignedMonomial(self.space, Fraction(c), self.space.unpack(key))

    def as_rational(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        mono = self.as_monomial()
        if any(mono.exps):
            raise NotAMonomial(f"not a rational constant: {self}")
        return mono.coeff

    # -- display --

    def __str__(self):
        if self.is_zero:
            return "0"
        num_s = _poly_str(self.space, _unpacked(self.space, self.num))
        if self.is_laurent:
            return num_s
        den_s = _poly_str(self.space, _unpacked(self.space, self.den))
        return f"({num_s})/({den_s})"

    def __repr__(self):
        return f"<LaurentFraction {self}>"


_new = object.__new__
_set_space, _set_num, _set_den = (
    getattr(LaurentFraction, name).__set__ for name in LaurentFraction.__slots__
)


def _unpacked(space, d):
    """The exponent-tuple-keyed copy of a packed dict, for printing."""
    return {space.unpack(e): c for e, c in d.items()}


def _monomial_str(space, coeff, exps):
    parts = []
    for name, e in zip(space.names, exps):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    mag = abs(coeff)
    sign = "-" if coeff < 0 else ""
    if not parts:
        return f"{sign}{mag}"
    if mag != 1:
        parts.insert(0, str(mag))
    return sign + "*".join(parts)


def _poly_str(space, d):
    # d is keyed by exponent tuples
    terms = sorted(d.items(), key=_term_sort_key, reverse=True)
    out = _monomial_str(space, terms[0][1], terms[0][0])
    for e, c in terms[1:]:
        piece = _monomial_str(space, abs(c), e)
        out += (" - " if c < 0 else " + ") + piece
    return out


@dataclass(frozen=True, slots=True)
class SignedMonomial:
    """c * q1^e1 * ... * qm^em with c a nonzero rational.

    Group operations only (these are units); ``is_root_of_unity`` and
    ``monomial_log`` support the torsion analysis of commutation-scalar
    subgroups of K^x.
    """

    space: ParameterSpace
    coeff: Fraction
    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(_coeff(self.coeff)))
        object.__setattr__(self, "exps", tuple(self.exps))
        if self.coeff == 0:
            raise ValueError("SignedMonomial coefficient must be nonzero")
        if len(self.exps) != self.space.m:
            raise ValueError("exponent tuple has wrong length")

    @classmethod
    def _make(cls, space, coeff, exps):
        """A value from a nonzero Fraction and a tuple of the space's length, built unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exps", exps)
        return self

    @classmethod
    def one(cls, space):
        return cls(space, Fraction(1), space.zero_exps())

    @classmethod
    def minus_one(cls, space):
        return cls(space, Fraction(-1), space.zero_exps())

    @classmethod
    def parameter(cls, space, name, power=1):
        exps = [0] * space.m
        exps[space.index(name)] = power
        return cls(space, Fraction(1), tuple(exps))

    def __mul__(self, other):
        if isinstance(other, SignedMonomial):
            if other.space is not self.space and other.space != self.space:
                raise ValueError("mixed parameter spaces")
            a, b = self.coeff, other.coeff
            coeff = b if a == 1 else a if b == 1 else a * b
            return self._make(self.space, coeff, tuple(map(add, self.exps, other.exps)))
        return NotImplemented

    def inverse(self):
        return self**-1

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        return self._make(self.space, self.coeff**k, tuple(e * k for e in self.exps))

    @property
    def is_one(self) -> bool:
        return self.coeff == 1 and not any(self.exps)

    def is_root_of_unity(self) -> bool:
        """True iff this scalar has finite multiplicative order.

        In Q(q_1,...,q_m) the only roots of unity are +-1, i.e. exponent
        vector zero and coefficient in {1, -1}.
        """
        return not any(self.exps) and self.coeff in (1, -1)

    def monomial_log(self):
        """Additive logarithm into Z/2 x Z^m: (sign bit, exponent vector).

        Requires coeff in {1, -1}; other rationals are not in the image of
        the sign-times-monomial subgroup and raise NotAMonomial.
        """
        if self.coeff == 1:
            return (0, self.exps)
        if self.coeff == -1:
            return (1, self.exps)
        raise NotAMonomial(f"coefficient {self.coeff} is not +-1")

    def to_fraction(self) -> LaurentFraction:
        return LaurentFraction.from_monomial(self.space, self.coeff, self.exps)

    def __str__(self):
        return _monomial_str(self.space, self.coeff, self.exps)

    def __repr__(self):
        return f"<SignedMonomial {self}>"


_ONE = Fraction(1)


def _coeff_pow(c, k):
    """c ** k for a Fraction coefficient, with Fraction arithmetic only when c is not +-1."""
    if c == 1 or c == -1:
        return c if k & 1 else _ONE
    return c**k


def _power_product(space, bases, exps) -> "SignedMonomial":
    """prod_i bases[i]^exps[i] for SignedMonomial bases, built unchecked as one SignedMonomial."""
    coeff = _ONE
    total = [0] * space.m
    for base, e in zip(bases, exps):
        if e:
            c = _coeff_pow(base.coeff, e)
            coeff = c if coeff == 1 else coeff * c
            for i, x in enumerate(base.exps):
                total[i] += e * x
    return SignedMonomial._make(space, coeff, tuple(total))
