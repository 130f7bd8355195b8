"""PBW normalization engine: rewriting, grading, substitution."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from cglkit import pbw
from cglkit.errors import (
    DivergenceBudgetExceeded,
    NotHomogeneous,
    ParseError,
    UnknownGenerator,
    ZeroElement,
)
from cglkit.pbw import PBWPolynomial, apply_endomorphism, multiply, normalize_words
from cglkit.presentation import (
    CGLPresentation,
    permute_presentation,
    sample_interval_permutation,
)
from cglkit.presets import parse_preset_spec
from cglkit.scalars import LaurentFraction


def qa(n, s="q"):
    return parse_preset_spec(f"quantum-affine:{n}:{s}")


def rand_poly(P, rng, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(P.N))
        coeff = LaurentFraction.from_monomial(
            P.space, Fraction(rng.randint(-2, 2) or 1), (rng.randint(-1, 1),) * P.space.m
        )
        terms[mono] = coeff
    return PBWPolynomial(P.space, P.N, terms)


def test_zero_and_constant():
    P = qa(2)
    z = PBWPolynomial.zero(P.space, P.N)
    assert z.is_zero
    assert z.as_constant() == LaurentFraction.zero(P.space)
    one = P.one()
    assert one.as_constant() == LaurentFraction.one(P.space)
    assert P.x(0).as_constant() is None


def test_binomial_square():
    # (x1 + x2)^2 = x1^2 + (1 + q) x1 x2 + x2^2 on the quantum plane
    P = qa(2)
    s = P.x(0) + P.x(1)
    sq = P.mul(s, s)
    q = P.scalar("q")
    expected = (
        pbw.power(P.x(0), 2, P)
        + P.mul(P.x(0), P.x(1)).scale(1 + q)
        + pbw.power(P.x(1), 2, P)
    )
    assert sq == expected


def test_oq_matrices_straightening():
    # x4 x1 = x1 x4 + (q^-1 - q) x2 x3 in O_q(M_2)
    P = parse_preset_spec("oq-matrices:2,2")
    lhs = P.mul(P.x(3), P.x(0))
    q = P.scalar("q")
    rhs = P.mul(P.x(0), P.x(3)) + P.mul(P.x(1), P.x(2)).scale(q.inverse() - q)
    assert lhs == rhs


def test_sl3_straightening():
    # x3 x1 = q x1 x3 - q x2 in U_q^+(sl_3)
    P = parse_preset_spec("uq-sl3")
    lhs = P.mul(P.x(2), P.x(0))
    q = P.scalar("q")
    rhs = P.mul(P.x(0), P.x(2)).scale(q) - P.x(1).scale(q)
    assert lhs == rhs


def test_associativity_and_strategy_independence():
    rng = random.Random(4321)
    for spec in ["quantum-affine:3:q", "oq-matrices:2,2", "uq-sl3"]:
        P = parse_preset_spec(spec)
        for _ in range(10):
            a, b, c = (rand_poly(P, rng) for _ in range(3))
            assert P.mul(P.mul(a, b), c) == P.mul(a, P.mul(b, c))
            assert multiply(a, b, P, strategy="leftmost") == multiply(
                a, b, P, strategy="rightmost"
            )


def assert_clean(p, P):
    """p has the form the public constructor produces: N-tuple keys, no zero coefficient."""
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == P.N
        assert all(type(e) is int and e >= 0 for e in mono)
        assert isinstance(coeff, LaurentFraction) and not coeff.is_zero
    rebuilt = PBWPolynomial(P.space, P.N, p.terms)
    assert rebuilt == p and set(rebuilt.terms) == set(p.terms)


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_engine_results_keep_the_constructor_invariants(strategy):
    rng = random.Random(8008)
    base = parse_preset_spec("oq-matrices:2,3")
    permuted = permute_presentation(base, [2, 1, 3, 0, 4, 5])
    for P in (base, parse_preset_spec("uq-sl3"), permuted):
        q = P.scalar("q")
        for _ in range(12):
            a, b = rand_poly(P, rng, max_exp=1), rand_poly(P, rng, max_exp=1)
            ab = multiply(a, b, P, strategy=strategy)
            aba = multiply(ab, a, P, strategy=strategy)
            for p in (ab, aba, a + b, a - b, -a, a.scale(q), ab - ab):
                assert_clean(p, P)
            word = [rng.randrange(P.N) for _ in range(rng.randint(0, 5))]
            items = [(q, word), (-q, word[::-1])]
            assert_clean(normalize_words(P, items, strategy=strategy), P)
            tau = sample_interval_permutation(P.N, rng)
            positions = [tau.index(g) for g in range(P.N)]
            out = normalize_words(P, items[:1], order_positions=positions, strategy=strategy)
            assert_clean(out, P)
            assert not out.is_zero


def test_public_constructor_rejects_bad_exponent_tuples():
    P = parse_preset_spec("uq-sl3")
    for mono in [(1, 0), (0, 0, 0, 1), (0, -1, 0)]:
        with pytest.raises(ValueError, match="bad exponent tuple"):
            PBWPolynomial(P.space, P.N, {mono: 1})


def test_fuel_budget_exhaustion():
    P = parse_preset_spec("oq-matrices:2,2")
    with pytest.raises(DivergenceBudgetExceeded):
        normalize_words(P, [(LaurentFraction.one(P.space), [3, 2, 1, 0])], fuel=2)


def rand_monomial_pair(P, rng):
    """Two small monomials; about half the pairs are ordered (m1 before m2)."""

    def mono(lo, hi):
        exps = [0] * P.N
        for _ in range(rng.randint(1, 3)):
            exps[rng.randint(lo, hi)] += 1
        return tuple(exps)

    split = rng.randrange(P.N)
    if rng.random() < 0.5:
        return mono(0, split), mono(split, P.N - 1)
    return mono(0, P.N - 1), mono(0, P.N - 1)


def rand_scalar(P, rng):
    t = LaurentFraction.parameter(P.space, P.space.names[0])
    return rng.choice([P.unit, -2 * P.unit, t, t**-1, (t + 1) / (t - 2)])


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_multiply_matches_normalizing_the_concatenated_word(strategy):
    rng = random.Random(2027)
    base = parse_preset_spec("oq-matrices:2,3")
    presentations = [
        base,
        parse_preset_spec("uq-sl3"),
        parse_preset_spec("multiparam-matrices:3"),
        permute_presentation(base, [2, 1, 3, 0, 4, 5]),
    ]
    ordered = 0
    for P in presentations:
        for _ in range(30):
            m1, m2 = rand_monomial_pair(P, rng)
            c1, c2 = rand_scalar(P, rng), rand_scalar(P, rng)
            got = multiply(
                PBWPolynomial(P.space, P.N, {m1: c1}),
                PBWPolynomial(P.space, P.N, {m2: c2}),
                P,
                strategy=strategy,
            )
            word = pbw.word_of_monomial(m1) + pbw.word_of_monomial(m2)
            expected = normalize_words(P, [(c1 * c2, word)], strategy=strategy)
            assert got == expected and set(got.terms) == set(expected.terms)
            ordered += word == sorted(word)
    # both kinds of pair occur: 120 products in all
    assert 30 <= ordered <= 90, ordered


def test_ordered_pairs_skip_the_rewriter_and_the_pair_cache(monkeypatch):
    words = []
    real = pbw.normalize_words

    def counting(P, items, *args, **kwargs):
        words.extend(w for _, w in items)
        return real(P, items, *args, **kwargs)

    monkeypatch.setattr(pbw, "normalize_words", counting)
    P = parse_preset_spec("oq-matrices:2,3")
    q = P.scalar("q")
    # every monomial of p lives on x1..x3 and every monomial of r on x3..x6
    p_terms = {(0,) * 6: 1, (1, 1, 0, 0, 0, 0): q, (0, 0, 2, 0, 0, 0): -1, (1, 0, 1, 0, 0, 0): 2}
    p = PBWPolynomial(P.space, P.N, p_terms)
    r = PBWPolynomial(
        P.space, P.N, {(0,) * 6: q, (0, 0, 1, 0, 0, 1): 1, (0, 0, 0, 2, 1, 0): -q.inverse()}
    )
    expected = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in r.terms.items():
            pbw._add_term(expected, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
    entries = len(P.pair_cache)
    for strategy in ("leftmost", "rightmost"):
        assert multiply(p, r, P, strategy=strategy) == PBWPolynomial(P.space, P.N, expected)
    assert words == [] and len(P.pair_cache) == entries
    # an unordered pair is rewritten: the leftmost product by one-letter
    # insertion into one new cache entry, the rightmost one by the rewriter
    multiply(P.x(3), P.x(0), P, strategy="leftmost")
    assert words == [] and len(P.pair_cache) == entries + 1
    multiply(P.x(3), P.x(0), P, strategy="rightmost")
    assert words == [[3, 0]] and len(P.pair_cache) == entries + 1


# oq-matrices:2,2 with a changed Q term: rewriting is not confluent there
BROKEN_OQ22 = (
    Path(__file__).resolve().parent / "data" / "frozen" / "inputs"
    / "preset_oq-matrices_2-2-broken.json"
)


def insertion_presentations(fuel_factor):
    """Builders of the broken oq 2,2 file, a permuted oq 2,3 and uq-sl3 (Q of several terms)."""

    def broken():
        P = CGLPresentation.from_json(BROKEN_OQ22.read_text())
        P.fuel_factor = fuel_factor
        return P

    def permuted():
        P = permute_presentation(parse_preset_spec("oq-matrices:2,3"), [2, 1, 3, 0, 4, 5])
        P.fuel_factor = fuel_factor
        return P

    def sl3():
        P = parse_preset_spec("uq-sl3")
        P.fuel_factor = fuel_factor
        return P

    return [broken, permuted, sl3]


def stack_product(P, a, b):
    """a * b from normalize_words, one word per monomial pair."""
    out = PBWPolynomial.zero(P.space, P.N)
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            word = pbw.word_of_monomial(m1) + pbw.word_of_monomial(m2)
            out = out + normalize_words(P, [(c1 * c2, word)])
    return out


def test_leftmost_products_equal_the_stack_rewriter():
    rng = random.Random(1515)
    for build in insertion_presentations(fuel_factor=8):
        P = build()
        for _ in range(12):
            a, b = rand_poly(P, rng, max_exp=1), rand_poly(P, rng, max_exp=1)
            got, expected = multiply(a, b, P), stack_product(P, a, b)
            assert got == expected and set(got.terms) == set(expected.terms)


def test_insertion_charges_at_most_the_stack_rewriter_steps():
    rng = random.Random(5)
    checked = 0
    for build in insertion_presentations(fuel_factor=8):
        P = build()
        zero = (0,) * P.N

        def mono():
            exps = [0] * P.N
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(P.N)] += 1
            return tuple(exps)

        for _ in range(40):
            m1, m2 = mono(), mono()
            last = pbw._last_letter(m1)
            if last <= pbw._first_letter(m2):
                continue
            low, _ = pbw._split_at(m2, last, zero)
            steps = pbw._pair_entry(P, m1, low)[0]
            word = pbw.word_of_monomial(m1) + pbw.word_of_monomial(m2)
            # the stack rewriter cannot finish the word in fewer steps
            with pytest.raises(DivergenceBudgetExceeded):
                normalize_words(P, [(P.unit, word)], fuel=steps - 1)
            checked += 1
    assert checked == 88


def test_fuel_verdicts_do_not_depend_on_the_cache():
    """At fuel factor 0 every budget is 64 steps: each product raises or
    completes alike on a fresh presentation and on one that already made the
    others, in either order."""
    rng = random.Random(77)
    raised = completed = 0
    for build in insertion_presentations(fuel_factor=0):

        def outcome(P, a, b):
            try:
                return P.format(multiply(a, b, P))
            except DivergenceBudgetExceeded:
                return None

        P = build()
        cases = [(rand_poly(P, rng, 2, 2), rand_poly(P, rng, 2, 2)) for _ in range(10)]
        fresh = [outcome(build(), a, b) for a, b in cases]
        warm = build()
        backwards = [outcome(warm, a, b) for a, b in reversed(cases)]
        assert fresh == backwards[::-1] == [outcome(warm, a, b) for a, b in cases]
        raised += fresh.count(None)
        completed += len(fresh) - fresh.count(None)
    assert (raised, completed) == (6, 24)


def test_insertion_too_deep_for_the_interpreter_falls_back_to_the_rewriter(monkeypatch):
    def too_deep(P, m1, m2):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(pbw, "_pair_entry", too_deep)
    P = parse_preset_spec("uq-sl3")
    a = PBWPolynomial.monomial(P.space, P.N, (1, 0, 3))
    b = PBWPolynomial.monomial(P.space, P.N, (3, 1, 1))
    assert multiply(a, b, P) == stack_product(P, a, b) != PBWPolynomial.zero(P.space, P.N)
    assert P.pair_cache == {}


def _ungraded(P):
    data = P.to_json_dict()
    del data["torus"]["pi"]
    return CGLPresentation.from_json_dict(data)


def test_fuel_budget_matches_its_formula(monkeypatch):
    budgets = []
    real = pbw._fuel_budget

    def recording(P, d):
        budgets.append((d, real(P, d)))
        return budgets[-1][1]

    monkeypatch.setattr(pbw, "_fuel_budget", recording)
    rng = random.Random(31)
    oq, sl3 = parse_preset_spec("oq-matrices:2,3"), parse_preset_spec("uq-sl3")
    sl3_ungraded = _ungraded(sl3)
    sl3_ungraded.fuel_factor = 3
    for P, graded in ((oq, True), (sl3, True), (_ungraded(oq), False), (sl3_ungraded, False)):
        degs = P.generator_degrees()
        assert (degs is not None) == graded

        def budget_of(word):
            d = len(word) if degs is None else sum(degs[i] for i in word)
            return d, max(64, P.fuel_factor * (d + 1) ** 2 * P.N**2)

        for _ in range(12):
            words = [[rng.randrange(P.N) for _ in range(rng.randint(0, 6))] for _ in range(3)]
            budgets.clear()
            normalize_words(P, [(P.unit, w) for w in words])
            assert budgets == [max(budget_of(w) for w in words)]
            # the miss path of multiply budgets the concatenated word
            m1, m2 = rand_monomial_pair(P, rng)
            budgets.clear()
            p1, p2 = (PBWPolynomial.monomial(P.space, P.N, m) for m in (m1, m2))
            multiply(p1, p2, P, strategy="rightmost")
            word = pbw.word_of_monomial(m1) + pbw.word_of_monomial(m2)
            assert budgets == ([] if word == sorted(word) else [budget_of(word)])


def test_graded_split_and_characters():
    P = parse_preset_spec("oq-matrices:2,2")
    p = P.mul(P.x(0), P.x(3)) + P.x(1)
    parts = pbw.graded_split(p, P)
    assert sorted(parts) == [1, 2]
    assert parts[1] == P.x(1)
    # characters: X11*X22 and X12*X21 share chi = e1+e2+e3+e4
    d = P.mul(P.x(0), P.x(3))
    assert pbw.character_of(d, P) == (1, 1, 1, 1)
    with pytest.raises(NotHomogeneous):
        pbw.character_of(p, P)
    with pytest.raises(ZeroElement):
        pbw.character_of(PBWPolynomial.zero(P.space, P.N), P)
    assert pbw.homogeneous_character(p, P) is None


def test_min_degree():
    P = parse_preset_spec("uq-sl3")
    # x2 carries degree 2 in the sl3 grading
    p = P.x(1) + P.mul(P.x(0), P.mul(P.x(0), P.x(2)))
    assert pbw.min_degree(p, P) == 2
    with pytest.raises(ZeroElement):
        pbw.min_degree(PBWPolynomial.zero(P.space, P.N), P)


def test_parse_and_format_roundtrip():
    P = parse_preset_spec("oq-matrices:2,2")
    rng = random.Random(99)
    for _ in range(20):
        p = rand_poly(P, rng)
        assert P.parse(P.format(p)) == p


def test_parse_exact_strings():
    P = parse_preset_spec("oq-matrices:2,2")
    q = P.scalar("q")
    p = P.parse("x1*x4 - q*x2*x3")
    assert p == P.mul(P.x(0), P.x(3)) - P.mul(P.x(1), P.x(2)).scale(q)
    assert P.format(p) == "x1*x4 - q*x2*x3"
    # aliases resolve and products normalize
    assert P.parse("X22 X11") == P.parse("x1*x4 + (q^-1 - q) x2 x3")
    assert P.parse("x1^2") == pbw.power(P.x(0), 2, P)
    assert P.parse("3") == PBWPolynomial.constant(P.space, P.N, P.scalar("3"))


def test_parse_error_positions():
    P = parse_preset_spec("oq-matrices:2,2")
    with pytest.raises(ParseError) as info:
        P.parse("x1 + @")
    assert info.value.line == 1
    assert info.value.col == 6
    with pytest.raises(UnknownGenerator):
        P.parse("x9")
    with pytest.raises(UnknownGenerator):
        P.parse("X31")
    with pytest.raises(ParseError):
        P.parse("x1 x2 +")


def test_parse_raw_mode_rejects_out_of_order():
    P = parse_preset_spec("oq-matrices:2,2")
    assert P.parse("x2*x3", normalize=False) == P.mul(P.x(1), P.x(2))
    with pytest.raises(ParseError):
        P.parse("x4*x1", normalize=False)


def test_parse_raw_mode_points_at_an_out_of_order_power():
    P = parse_preset_spec("oq-matrices:2,2")
    with pytest.raises(ParseError) as info:
        P.parse("x1 + (x2 + x1)^2", normalize=False)
    assert (info.value.line, info.value.col) == (1, 6)


def test_apply_endomorphism_substitutes_in_order():
    P = qa(2)
    q = P.scalar("q")
    images = [P.x(0), P.x(0) + P.x(1)]
    p = P.mul(P.x(0), P.x(1))
    out = apply_endomorphism(images, p, P)
    assert out == P.mul(P.x(0), P.x(0) + P.x(1))
    # scalar coefficients pass through untouched
    out2 = apply_endomorphism(images, P.x(1).scale(q), P)
    assert out2 == (P.x(0) + P.x(1)).scale(q)


def test_apply_endomorphism_builds_each_power_once(monkeypatch):
    """On oq-matrices:2,2 with x1 -> x1 + x2, p = x1^3 + x1^2 x2 + x1 needs
    the powers (x1 + x2)^2 and (x1 + x2)^3 once each, 2 products, and one
    product per factor of each term, 4 more; rebuilding a power from scratch
    whenever the one below it was not yet made took 11."""
    P = parse_preset_spec("oq-matrices:2,2")
    images = [P.x(0) + P.x(1), P.x(1), P.x(2), P.x(3)]
    p = PBWPolynomial(P.space, P.N, {(3, 0, 0, 0): 1, (2, 1, 0, 0): 1, (1, 0, 0, 0): 1})
    expected = PBWPolynomial.zero(P.space, P.N)
    for mono, coeff in p.terms.items():
        factor = PBWPolynomial.constant(P.space, P.N, coeff)
        for i, e in enumerate(mono):
            factor = multiply(factor, pbw.power(images[i], e, P), P)
        expected = expected + factor
    calls = []

    def counting(p, r, P, strategy="leftmost"):
        calls.append(1)
        return multiply(p, r, P, strategy)

    monkeypatch.setattr(pbw, "multiply", counting)
    out = apply_endomorphism(images, p, P)
    assert len(calls) == 6
    assert out == expected
    assert P.format(out) == P.format(expected)


def test_parentheses_nested_up_to_the_bound_parse():
    P = parse_preset_spec("oq-matrices:2,2")
    assert P.parse("(" * 100 + "x1" + ")" * 100) == P.x(0)
    assert P.parse("-(" * 50 + "x2 x3" + ")" * 50) == P.mul(P.x(1), P.x(2))
    with pytest.raises(ParseError, match="^expression nested too deeply"):
        P.parse("(" * 101 + "x1" + ")" * 101)


def test_supported_below():
    P = parse_preset_spec("oq-matrices:2,2")
    assert pbw.supported_below(P.mul(P.x(1), P.x(2)), 3)
    assert not pbw.supported_below(P.x(3), 3)
    assert pbw.supported_below(PBWPolynomial.zero(P.space, P.N), 0)
