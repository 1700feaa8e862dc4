"""Exact polynomial core: ring laws, calculus, determinants, rank,
nullspaces, canonical text, and serialisation.

Determinants are cross-checked against the plain cofactor oracle in
conftest, which expands along a different line with no memoization.
"""

import random
from fractions import Fraction

import pytest

from conftest import cofactor_det, random_poly, rational_point
from gnlab import (BudgetExceeded, MissingVariable, Polynomial, PolyMatrix,
                   RegistryMismatch, VarRegistry, det, exact_div, nullspace,
                   parse_polynomial, rank, rank_rational, rref,
                   sparse_nullspace)


def abc_registry():
    reg = VarRegistry()
    for name in ("a", "b", "c", "d"):
        reg.add(name)
    return reg


# ----------------------------------------------------------------------
# ring laws


def test_ring_laws_random():
    reg = abc_registry()
    rng = random.Random(42)
    for _ in range(40):
        f = random_poly(reg, rng)
        g = random_poly(reg, rng)
        h = random_poly(reg, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == reg.zero()
        assert f * reg.zero() == reg.zero()
        assert f * reg.one() == f
        assert f + 0 == f and f * 1 == f


def test_scalar_and_power():
    reg = abc_registry()
    a = reg.poly("a")
    b = reg.poly("b")
    p = 2 * a + b * Fraction(1, 3)
    assert p.coefficient({"a": 1}) == 2
    assert p.coefficient({"b": 1}) == Fraction(1, 3)
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b
    assert (a + b) ** 0 == reg.one()
    rng = random.Random(7)
    for _ in range(10):
        f = random_poly(reg, rng, max_terms=3, max_degree=2)
        assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        a ** -1


def test_registry_isolation():
    r1 = abc_registry()
    r2 = abc_registry()
    with pytest.raises(RegistryMismatch):
        r1.poly("a") + r2.poly("a")
    with pytest.raises(MissingVariable):
        r1.poly("nope")


# ----------------------------------------------------------------------
# calculus and evaluation


def test_partial_derivatives():
    reg = abc_registry()
    a, b = reg.poly("a"), reg.poly("b")
    va = reg.var("a")
    assert (a ** 4).partial(va) == 4 * a ** 3
    assert b.partial(va).is_zero
    rng = random.Random(3)
    for _ in range(25):
        f = random_poly(reg, rng)
        g = random_poly(reg, rng)
        # product rule
        assert (f * g).partial(va) == f.partial(va) * g + f * g.partial(va)


def test_eval_is_a_homomorphism():
    reg = abc_registry()
    rng = random.Random(5)
    for _ in range(25):
        f = random_poly(reg, rng)
        g = random_poly(reg, rng)
        point = rational_point(reg, rng)
        assert (f * g).eval(point) == f.eval(point) * g.eval(point)
        assert (f + g).eval(point) == f.eval(point) + g.eval(point)


def test_eval_requires_full_assignment():
    reg = abc_registry()
    p = reg.poly("a") * reg.poly("b")
    with pytest.raises(MissingVariable):
        p.eval({"a": 1})


def test_substitute_composes_with_eval():
    reg = abc_registry()
    target = VarRegistry()
    for name in ("u", "v"):
        target.add(name)
    rng = random.Random(11)
    for _ in range(15):
        f = random_poly(reg, rng, max_terms=3, max_degree=2)
        images = {v: random_poly(target, rng, max_terms=2, max_degree=2)
                  for v in reg.var_ids}
        point = rational_point(target, rng)
        composed = f.substitute(images)
        direct = f.eval({v: img.eval(point) for v, img in images.items()})
        assert composed.eval(point) == direct


# ----------------------------------------------------------------------
# determinants


def test_det_small_goldens():
    reg = abc_registry()
    a, b, c, d = (reg.poly(n) for n in "abcd")
    assert det(PolyMatrix.from_rows([[a]])) == a
    assert det(PolyMatrix.from_rows([[a, b], [c, d]])) == a * d - b * c
    # a singular matrix built from a repeated row
    assert det(PolyMatrix.from_rows([[a, b], [a, b]])).is_zero


def test_det_sl2_corner():
    reg = VarRegistry()
    for name in ("h", "xm", "xp"):
        reg.add(name)
    h, xm, xp = reg.poly("h"), reg.poly("xm"), reg.poly("xp")
    m = PolyMatrix.from_rows([[-2 * xm, h], [h, 2 * xp]])
    assert det(m) == -4 * xm * xp - h * h
    assert -det(m) == h ** 2 + 4 * xp * xm


def test_det_matches_cofactor_oracle():
    rng = random.Random(19)
    for size in (2, 3, 4, 5):
        reg = abc_registry()
        rows = [[random_poly(reg, rng, max_terms=2, max_degree=1)
                 for _ in range(size)] for _ in range(size)]
        assert det(PolyMatrix.from_rows(rows)) == cofactor_det(rows)


def test_det_transpose_invariant():
    rng = random.Random(23)
    reg = abc_registry()
    rows = [[random_poly(reg, rng, max_terms=2, max_degree=1)
             for _ in range(4)] for _ in range(4)]
    m = PolyMatrix.from_rows(rows)
    assert det(m) == det(m.transpose())


def test_exact_division():
    reg = abc_registry()
    rng = random.Random(29)
    for _ in range(20):
        f = random_poly(reg, rng, max_terms=3, max_degree=2)
        g = random_poly(reg, rng, max_terms=3, max_degree=2)
        if g.is_zero:
            continue
        assert exact_div(f * g, g) == f
    a, b = reg.poly("a"), reg.poly("b")
    with pytest.raises(ArithmeticError):
        exact_div(a * a + b, a)


# ----------------------------------------------------------------------
# rank and nullspaces


def test_rank_strategies_agree():
    reg = abc_registry()
    rng = random.Random(31)
    a, b = reg.poly("a"), reg.poly("b")
    corpus = [
        PolyMatrix.from_rows([[a, b], [2 * a, 2 * b]]),
        PolyMatrix.from_rows([[a, b], [b, a]]),
        PolyMatrix.from_rows([[reg.zero(), a], [-a, reg.zero()]]),
    ]
    for _ in range(6):
        rows = [[random_poly(reg, rng, max_terms=2, max_degree=1)
                 for _ in range(3)] for _ in range(3)]
        corpus.append(PolyMatrix.from_rows(rows))
    for m in corpus:
        exact = rank(m, "exact_symbolic")
        probed = rank(m, "specialize", seed=1)
        assert probed == exact
    assert rank(corpus[0], "specialize") == 1


def test_rank_rational_goldens():
    F = Fraction
    assert rank_rational([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_rational([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank_rational([[F(0), F(0)]]) == 0


def test_nullspace_goldens():
    F = Fraction
    basis = nullspace([[F(1), F(-1)]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] and v[0] != 0
    assert nullspace([[F(1), F(0)], [F(0), F(1)]]) == []
    # every returned vector actually solves the system
    rng = random.Random(37)
    for _ in range(10):
        rows = [[F(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        for vec in nullspace(rows):
            assert all(sum(r[i] * vec[i] for i in range(5)) == 0
                       for r in rows)


def test_rref_shape():
    F = Fraction
    reduced, pivots = rref([[F(2), F(4)], [F(1), F(2)]])
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]


def test_sparse_nullspace_matches_dense():
    rng = random.Random(41)
    F = Fraction
    for _ in range(15):
        ncols = rng.randint(2, 7)
        dense = [[F(rng.randint(-3, 3)) if rng.random() < 0.4 else F(0)
                  for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        sparse = [{i: v for i, v in enumerate(row) if v} for row in dense]
        sparse = [r for r in sparse if r]
        got = sparse_nullspace(sparse, ncols=ncols)
        want = nullspace([r for r in dense if any(r)] or [],
                         ncols=ncols)
        assert got == want


# ----------------------------------------------------------------------
# text, parsing, serialisation


def test_canonical_text():
    reg = VarRegistry()
    for name in ("h", "xm", "xp"):
        reg.add(name)
    h, xm, xp = reg.poly("h"), reg.poly("xm"), reg.poly("xp")
    assert (h ** 2 + 4 * xp * xm).text() == "h^2 + 4*xp*xm"
    assert (-(h ** 2) - 4 * xp * xm).text() == "-h^2 - 4*xp*xm"
    assert (xm * Fraction(3, 2) + 1).text() == "3/2*xm + 1"
    assert reg.zero().text() == "0"
    assert (h - h).text() == "0"


def test_parse_polynomial_roundtrip():
    reg = abc_registry()
    rng = random.Random(43)
    for _ in range(25):
        f = random_poly(reg, rng)
        assert parse_polynomial(f.text(), reg) == f


def test_parse_polynomial_forms():
    reg = VarRegistry()
    for name in ("h", "xm", "xp"):
        reg.add(name)
    h, xm, xp = reg.poly("h"), reg.poly("xm"), reg.poly("xp")
    assert parse_polynomial("xp - xm", reg) == xp - xm
    assert parse_polynomial("xm^2/4 + 0.5*h", reg) == \
        xm * xm * Fraction(1, 4) + h * Fraction(1, 2)
    assert parse_polynomial("-(h + xm)**2", reg) == -((h + xm) ** 2)
    with pytest.raises(MissingVariable):
        parse_polynomial("q1 + h", reg)
    with pytest.raises(ValueError):
        parse_polynomial("h / xm", reg)
    with pytest.raises(ValueError):
        parse_polynomial("import os", reg)


def test_json_roundtrip():
    reg = abc_registry()
    rng = random.Random(47)
    for _ in range(20):
        f = random_poly(reg, rng)
        assert Polynomial.from_json(reg, f.to_json()) == f


def test_budget_error_is_runtime_error():
    assert issubclass(BudgetExceeded, RuntimeError)


def test_degree_overflow_raises_budget_exceeded():
    reg = abc_registry()
    a, b = reg.poly("a"), reg.poly("b")
    assert (a ** 255).total_degree() == 255
    with pytest.raises(BudgetExceeded):
        a ** 256
    with pytest.raises(BudgetExceeded):
        (a ** 200 + b) * (b ** 200 + a)
    with pytest.raises(BudgetExceeded):
        (a ** 128 + b).substitute({v: a * b for v in reg.var_ids})
    with pytest.raises(BudgetExceeded):
        det(PolyMatrix.from_rows([[a ** 200, b], [a, b ** 100]]))
    with pytest.raises(BudgetExceeded):
        Polynomial.from_json(reg, {"terms": [{"coeff": "1",
                                              "monomial": {"a": 256}}]})
