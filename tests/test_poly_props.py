"""Oracles for the polynomial core that share no code with it.

Property tests (hypothesis) check the ring axioms, substitution as a ring
homomorphism, the Leibniz rule and the one-pass vector field kernel
against sums of partial derivatives, on polynomials whose coefficients mix
integers and non-integral rationals; `_clean` against a plain dict
comprehension; and the canonical term order against one built from
decoded exponent tuples.  The canonical bracket obeys Jacobi
and Leibniz on random phase polynomials.  The determinant is alternating
and linear in each row.  sympy's Berkowitz determinant is an independent
oracle for the invariants C_n = -det M_n at small levels.
"""

import json
from fractions import Fraction

import pytest

from conftest import (canonical_order, evaluate, poly_from_json,
                      poly_json, poly_json_reference)
from gnlab import (PhaseContext, Polynomial, VarRegistry,
                   build_gn, canonical_bracket, casimir, det)
from gnlab.poly import _clean, derive, exponents, monomial, poly_sum

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=60, deadline=None)

SOURCE = VarRegistry(["a", "b", "c"])
# index order h, xp, xm; name order h, xm, xp
LADDER = VarRegistry(["h", "xp", "xm"])
TARGET = VarRegistry(["u", "v"])
# g_2's generators, then the canonical pairs q1, p1, q2, p2
PHASE = PhaseContext(2, 2)


def polynomials(registry: VarRegistry, max_exponent: int = 3,
                indices=None):
    """Random polynomials over `registry`, or over its `indices` alone."""
    coeffs = st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-5, max_value=5, max_denominator=7))
    variables = st.integers(0, len(registry) - 1) if indices is None \
        else st.sampled_from(indices)
    exps = st.dictionaries(variables, st.integers(0, max_exponent),
                           max_size=3)

    def build(pairs):
        terms: dict = {}
        for e, c in pairs:
            m = monomial(e)
            terms[m] = terms.get(m, 0) + c
        return Polynomial(registry, terms)

    return st.lists(st.tuples(exps, coeffs), max_size=5).map(build)


def assert_normalised(p: Polynomial | dict) -> None:
    """Coefficients (of a polynomial or a term dict) are nonzero, and int
    exactly when integral."""
    for c in (p if isinstance(p, dict) else p.terms).values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings
@given(polynomials(SOURCE), polynomials(SOURCE), polynomials(SOURCE))
def test_ring_axioms(f, g, h):
    zero, one = SOURCE.zero(), SOURCE.one()
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f + (-f) == zero and f - f == zero
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f and f * zero == zero
    assert f * (g + h) == f * g + f * h
    assert f * Fraction(2, 3) * Fraction(3, 2) == f
    for p in (f + g, f - g, f * g, f * Fraction(1, 3), f ** 2):
        assert_normalised(p)


def substitution_images(registry: VarRegistry):
    """Substitution images: constants (0, an int, a Fraction), each of
    which `substitute` applies as a scalar product, mixed with
    polynomials."""
    consts = st.one_of(
        st.just(0), st.integers(-6, 6),
        st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return st.one_of(consts.map(registry.const),
                     polynomials(registry, max_exponent=2))


@settings
@given(polynomials(SOURCE), polynomials(SOURCE),
       st.lists(substitution_images(TARGET), min_size=3, max_size=3),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=2, max_size=2))
def test_substitute_is_a_ring_homomorphism(f, g, images, point):
    phi = dict(zip(SOURCE.var_ids, images))
    assert (f + g).substitute(phi) == f.substitute(phi) + g.substitute(phi)
    assert (f * g).substitute(phi) == f.substitute(phi) * g.substitute(phi)
    assert SOURCE.one().substitute(phi) == TARGET.one()
    assert_normalised(f.substitute(phi))
    # evaluation after substitution is evaluation at the images' values,
    # an oracle that shares no code with the expansion
    at = dict(zip(TARGET.var_ids, point))
    values = {v: evaluate(img, at) for v, img in phi.items()}
    for p in (f, f * g):
        assert evaluate(p.substitute(phi), at) == evaluate(p, values)


@settings
@given(polynomials(SOURCE), polynomials(SOURCE),
       st.sampled_from(["a", "b", "c"]))
def test_partial_obeys_leibniz(f, g, name):
    assert (f * g).partial(name) == f.partial(name) * g + f * g.partial(name)
    assert (f + g).partial(name) == f.partial(name) + g.partial(name)
    assert_normalised(f.partial(name))


def general_fields():
    """(f, field, False): any polynomial and any field over SOURCE, the
    field as {variable index: coefficient}."""
    return st.tuples(
        polynomials(SOURCE),
        st.dictionaries(st.integers(0, len(SOURCE) - 1), polynomials(SOURCE),
                        max_size=len(SOURCE)),
        st.just(False))


def cancelling_fields():
    """(f, field, True): the rotation field s*(b d/da - a d/db) and a
    polynomial in a^2 + b^2 and c, which it kills: the kernel's terms
    cancel to zero."""
    a, b, c = (SOURCE.poly(name) for name in "abc")

    def build(h, s):
        f = h.substitute({"a": a * a + b * b, "b": c, "c": c * c})
        return f, {0: s * b, 1: -(s * a)}, True

    return st.builds(build, polynomials(SOURCE, max_exponent=2),
                     polynomials(SOURCE, max_exponent=2))


@settings
@given(st.one_of(general_fields(), cancelling_fields()))
def test_derive_is_the_sum_of_coefficients_times_partials(case):
    f, field, cancels = case
    want = poly_sum(SOURCE, (a * f.partial(SOURCE.var_ids[i])
                             for i, a in field.items()))
    got = derive(f.terms, f.total_degree(),
                 {i: a.terms for i, a in field.items()},
                 max((a.total_degree() for a in field.values()), default=0))
    assert got == want.terms
    assert_normalised(got)
    if cancels:
        assert got == {}


def phase_polynomials():
    return polynomials(PHASE.registry, max_exponent=2,
                       indices=[v.index for v in PHASE.state_vars()])


@settings
@given(phase_polynomials(), phase_polynomials(), phase_polynomials())
def test_canonical_bracket_obeys_jacobi_and_leibniz(f, g, h):
    """`check_involution` brackets each integral with the realised
    generating set only: the brackets with the other generators, and of
    the integrals with one another, follow from these identities."""
    def br(a, b):
        return canonical_bracket(PHASE, a, b)

    assert not (br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g)))
    assert br(f, g * h) == br(f, g) * h + g * br(f, h)
    assert br(f, g) == -br(g, f)


def square_matrices(max_size: int = 4):
    """Random square lists of rows of small polynomials over SOURCE."""
    return st.integers(1, max_size).flatmap(lambda size: st.lists(
        st.lists(polynomials(SOURCE, max_exponent=2), min_size=size,
                 max_size=size), min_size=size, max_size=size))


@settings
@given(square_matrices(), st.data())
def test_det_is_alternating_and_linear_in_each_row(rows, data):
    """Swapping two rows negates det; scaling one row by a rational scales
    det by it."""
    size = len(rows)
    d = det(rows)
    i = data.draw(st.integers(0, size - 1))
    scale = data.draw(st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
    scaled = [[e * scale for e in row] if r == i else row
              for r, row in enumerate(rows)]
    assert det(scaled) == d * scale
    if size > 1:
        j = data.draw(st.integers(0, size - 1).filter(lambda j: j != i))
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert det(swapped) == -d


def term_dicts():
    """Term dicts of nonzero ints alone (the all-int case), or mixing ints,
    zero among them, with integral and non-integral Fractions."""
    ints = st.integers(-3, 3)
    nonzero = st.dictionaries(st.integers(0, 40), ints.filter(bool))
    mixed = st.dictionaries(st.integers(0, 40), st.one_of(
        ints, ints.map(Fraction),
        st.fractions(min_value=-5, max_value=5, max_denominator=7)))
    return st.one_of(nonzero, mixed)


@settings
@given(term_dicts())
def test_clean_drops_zeros_and_makes_integral_fractions_ints(terms):
    cleaned = _clean(terms)
    assert cleaned is not terms
    expected = [(m, int(c) if c.denominator == 1 else c)
                for m, c in terms.items() if c]
    assert [(m, type(c), c) for m, c in cleaned.items()] == \
        [(m, type(c), c) for m, c in expected]


@settings
@given(polynomials(SOURCE))
def test_serialisation_roundtrips(f):
    assert poly_from_json(SOURCE, json.loads(poly_json(f))) == f


@settings
@given(polynomials(LADDER), st.sampled_from(["", "  ", " " * 8]))
def test_json_writer_matches_reference(f, pad):
    assert poly_json(f, pad) == poly_json_reference(f, pad)


# 20 variables, so that terms are rendered in two groups of 16, with names
# out of index order
WIDE = VarRegistry([f"w{(7 * k) % 20:02d}" for k in range(20)])


def wide_polynomials():
    """Polynomials over WIDE mixing degrees, often with a constant term,
    and with monomials at the degree cap 255, one exponent 255 or split."""
    small = st.dictionaries(st.integers(0, len(WIDE) - 1),
                            st.integers(0, 4), max_size=4)
    one = st.integers(0, len(WIDE) - 1)
    capped = st.one_of(
        one.map(lambda i: {i: 255}),
        st.tuples(one, one, st.integers(0, 255)).filter(
            lambda t: t[0] != t[1]).map(
            lambda t: {t[0]: t[2], t[1]: 255 - t[2]}))
    exps = st.one_of(small, capped, st.just({}))
    coeffs = st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-5, max_value=5, max_denominator=7))

    def build(pairs):
        terms: dict = {}
        for e, c in pairs:
            m = monomial(e)
            terms[m] = terms.get(m, 0) + c
        return Polynomial(WIDE, terms)

    return st.lists(st.tuples(exps, coeffs), max_size=8).map(build)


@settings
@given(wide_polynomials())
@hypothesis.example(Polynomial(WIDE, {0: 3, monomial({4: 255}): -1,
                                      monomial({2: 1, 19: 254}): 2,
                                      monomial({5: 2}): 1}))
def test_canonical_order_matches_independent_order(f):
    assert f.sorted_terms() == canonical_order(f)
    assert f.total_degree() == max(
        (sum(e for _, e in exponents(m)) for m in f.terms), default=0)
    assert poly_json(f) == poly_json_reference(f)


# ----------------------------------------------------------------------
# sympy oracle for C_n


def sympy_casimir(sympy, n: int):
    """-det M_n from the matrix layout alone: the central block z_{i,j},
    the ladder border (-y_{i,-}, y_{i,+}) and the corner
    [[-2 x-, h], [h, 2 x+]]."""
    S = sympy.Symbol
    k = n - 2
    rows = []
    for i in range(1, k + 1):
        rows.append([S(f"z{min(i, j)}_{max(i, j)}") for j in range(1, k + 1)]
                    + [-S(f"y{i}m"), S(f"y{i}p")])
    rows.append([-S(f"y{j}m") for j in range(1, k + 1)]
                + [-2 * S("xm"), S("h")])
    rows.append([S(f"y{j}p") for j in range(1, k + 1)]
                + [S("h"), 2 * S("xp")])
    return -sympy.Matrix(rows).det(method="berkowitz")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_casimir_matches_sympy_berkowitz(n):
    sympy = pytest.importorskip("sympy")
    expr = sympy.expand(sympy_casimir(sympy, n))
    gens = sorted(expr.free_symbols, key=lambda s: s.name)
    want = {
        frozenset((g.name, e) for g, e in zip(gens, exps) if e):
            Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(expr, *gens).terms()}
    c = casimir(build_gn(n)).polynomial
    got = {
        frozenset(term["monomial"].items()): Fraction(term["coeff"])
        for term in json.loads(poly_json(c))["terms"]}
    assert got == want
