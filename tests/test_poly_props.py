"""Oracles for the polynomial core that share no code with it.

Property tests (hypothesis) check the ring axioms, substitution as a ring
homomorphism and the Leibniz rule on polynomials whose coefficients mix
integers and non-integral rationals.  sympy's Berkowitz determinant is an
independent oracle for the invariants C_n = -det M_n at small levels.
"""

from fractions import Fraction

import pytest

from gnlab import Polynomial, VarRegistry, casimir
from gnlab.poly import monomial

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
settings = hypothesis.settings(max_examples=60, deadline=None)

SOURCE = VarRegistry(["a", "b", "c"])
TARGET = VarRegistry(["u", "v"])


def polynomials(registry: VarRegistry, max_exponent: int = 3):
    coeffs = st.one_of(
        st.integers(-30, 30),
        st.fractions(min_value=-5, max_value=5, max_denominator=7))
    exps = st.dictionaries(st.integers(0, len(registry) - 1),
                           st.integers(0, max_exponent), max_size=3)

    def build(pairs):
        terms: dict = {}
        for e, c in pairs:
            m = monomial(e)
            terms[m] = terms.get(m, 0) + c
        return Polynomial(registry, terms)

    return st.lists(st.tuples(exps, coeffs), max_size=5).map(build)


def assert_normalised(p: Polynomial) -> None:
    """Coefficients are nonzero, and int exactly when integral."""
    for c in p.terms.values():
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


@settings
@given(polynomials(SOURCE), polynomials(SOURCE),
       st.lists(polynomials(TARGET, max_exponent=2), min_size=3, max_size=3))
def test_substitute_is_a_ring_homomorphism(f, g, images):
    phi = dict(zip(SOURCE.var_ids, images))
    assert (f + g).substitute(phi) == f.substitute(phi) + g.substitute(phi)
    assert (f * g).substitute(phi) == f.substitute(phi) * g.substitute(phi)
    assert SOURCE.one().substitute(phi) == TARGET.one()
    assert_normalised(f.substitute(phi))


@settings
@given(polynomials(SOURCE), polynomials(SOURCE),
       st.sampled_from(["a", "b", "c"]))
def test_partial_obeys_leibniz(f, g, name):
    assert (f * g).partial(name) == f.partial(name) * g + f * g.partial(name)
    assert (f + g).partial(name) == f.partial(name) + g.partial(name)
    assert_normalised(f.partial(name))


@settings
@given(polynomials(SOURCE))
def test_serialisation_roundtrips(f):
    assert Polynomial.from_json(SOURCE, f.to_json()) == f


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
    got = {
        frozenset(term["monomial"].items()): Fraction(term["coeff"])
        for term in casimir(n).polynomial.to_json()["terms"]}
    assert got == want
