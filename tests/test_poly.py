"""Exact polynomial core: ring laws, calculus, determinants, rational
rank, nullspaces, canonical text, and serialisation.

Determinants are cross-checked against the plain cofactor oracle in
conftest, which expands along a different line with no memoization.
"""

import importlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import (cofactor_det, evaluate, poly_from_json, poly_json,
                      poly_json_reference, random_poly, rational_point)
from gnlab import (BudgetExceeded, MissingVariable, Polynomial,
                   RegistryMismatch, VarRegistry, det, parse_polynomial,
                   rank_rational, sparse_nullspace)
from gnlab.poly import monomial, rank_mod_p


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


def test_var_takes_names_and_own_variables_only():
    reg = abc_registry()
    a = reg.var("a")
    assert reg.var("a") == reg.var(a) == a
    # same name, other index; and an index this registry does not have
    for foreign in (VarRegistry(["b", "a"]).var("a"),
                    VarRegistry(["a", "b", "c", "d", "e"]).var("e")):
        with pytest.raises(RegistryMismatch, match="another registry"):
            reg.var(foreign)
    with pytest.raises(MissingVariable, match="unknown variable"):
        reg.var("nope")


# ----------------------------------------------------------------------
# calculus and evaluation


def test_partial_derivatives():
    reg = abc_registry()
    a, b = reg.poly("a"), reg.poly("b")
    va = reg.var("a")
    assert (a ** 4).partial(va) == 4 * a ** 3
    assert not b.partial(va)
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
        fx, gx = evaluate(f, point), evaluate(g, point)
        assert evaluate(f * g, point) == fx * gx
        assert evaluate(f + g, point) == fx + gx


def test_eval_requires_full_assignment():
    reg = abc_registry()
    p = reg.poly("a") * reg.poly("b")
    with pytest.raises(MissingVariable):
        evaluate(p, {"a": 1})


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
        direct = evaluate(f, {v: evaluate(img, point)
                              for v, img in images.items()})
        assert evaluate(composed, point) == direct


def test_substitute_folds_constant_images():
    reg = abc_registry()
    a, b, c, d = (reg.poly(n) for n in "abcd")
    target = VarRegistry(["u"])
    u = target.poly("u")
    f = 3 * a * b ** 2 + Fraction(1, 2) * a * c + b * d - 5 * c ** 2
    images = {"a": u + 1, "b": target.const(Fraction(2, 3)),
              "c": target.zero(), "d": target.const(-4)}
    # b^2 -> 4/9 and c -> 0: only the a and d parts are expanded
    assert f.substitute(images) == \
        Fraction(4, 3) * (u + 1) + target.const(Fraction(-8, 3))
    assert not (a * c).substitute(images)
    assert reg.const(7).substitute(images) == target.const(7)
    # an exponent of 128 or more fills the top bit of its variable's byte
    assert (a ** 200 * b).substitute({"a": target.const(-1), "b": u}) == u
    # the zero polynomial has nothing to expand: the target's zero
    zero = reg.zero().substitute(images)
    assert not zero and zero.registry is target
    # a non-homogeneous f whose remainders meet in different rounds: a*c
    # and a^2 reach a after one peel, a*b*d after two, b*d and c reach the
    # unit monomial after two and one; checked against evaluation
    two = VarRegistry(["u", "v"])
    u, v = two.poly("u"), two.poly("v")
    f = (a ** 2 - Fraction(3, 7) * a * c + 2 * a * b * d
         + Fraction(5, 2) * b * d - c + a + Fraction(-1, 6))
    images = {"a": Fraction(1, 2) * u + v, "b": Fraction(2, 3) * u ** 2 - 1,
              "c": two.const(Fraction(3, 4)), "d": v - Fraction(1, 3) * u}
    point = {"u": Fraction(-2, 5), "v": Fraction(7, 3)}
    values = {name: evaluate(img, point) for name, img in images.items()}
    assert evaluate(f.substitute(images), point) == evaluate(f, values)


def test_zero_image_does_not_hide_an_uncovered_variable():
    reg = abc_registry()
    target = VarRegistry(["u"])
    z, q = reg.poly("a"), reg.poly("b")
    with pytest.raises(MissingVariable, match="'b'"):
        (z * q).substitute({"a": target.zero()})
    with pytest.raises(MissingVariable, match="'b'"):
        (z * q).substitute({"a": target.const(3)})


# ----------------------------------------------------------------------
# determinants


def test_det_small_goldens():
    reg = abc_registry()
    a, b, c, d = (reg.poly(n) for n in "abcd")
    assert det([[a]]) == a
    assert det([[a, b], [c, d]]) == a * d - b * c
    # a singular matrix built from a repeated row
    assert not det([[a, b], [a, b]])


def test_det_rejects_empty_ragged_non_square_and_mixed_rows():
    """The rows must form a nonempty square matrix over one registry; an
    entry from another registry is refused even where it is zero."""
    reg, other = abc_registry(), abc_registry()
    a, b, c, d = (reg.poly(n) for n in "abcd")
    for rows in ([], [[]], [[a, b]], [[a], [b]], [[a, b], [c]],
                 [[a], [b, c]], [[a, b, c], [a, b, c], [a, b]]):
        with pytest.raises(ValueError) as raised:
            det(rows)
        assert type(raised.value) is ValueError
    for rows in ([[other.poly("a"), b], [c, d]],
                 [[a, b], [c, other.poly("d")]],
                 [[a, other.zero()], [c, d]]):
        with pytest.raises(RegistryMismatch):
            det(rows)


def test_det_sl2_corner():
    reg = VarRegistry()
    for name in ("h", "xm", "xp"):
        reg.add(name)
    h, xm, xp = reg.poly("h"), reg.poly("xm"), reg.poly("xp")
    m = [[-2 * xm, h], [h, 2 * xp]]
    assert det(m) == -4 * xm * xp - h * h
    assert -det(m) == h ** 2 + 4 * xp * xm


def test_det_matches_cofactor_oracle():
    """Odd and even splits of the complementary-minor expansion, with
    integral and fractional coefficients, and the singular cases of a zero
    row, a zero column and a repeated row."""
    rng = random.Random(19)
    reg = abc_registry()
    for size in range(1, 8):
        rows = [[random_poly(reg, rng, max_terms=2, max_degree=1)
                 for _ in range(size)] for _ in range(size)]
        fractional = [[e * Fraction(rng.randint(-9, 9), rng.randint(2, 7))
                       for e in row] for row in rows]
        cases = [rows, fractional]
        if size > 1:
            r, s = rng.sample(range(size), 2)
            zero_row = [list(row) for row in fractional]
            zero_row[r] = [reg.zero()] * size
            zero_column = [[reg.zero() if j == s else e
                            for j, e in enumerate(row)] for row in rows]
            repeated = [list(row) for row in fractional]
            repeated[s] = list(repeated[r])
            cases += [zero_row, zero_column, repeated]
        for k, case in enumerate(cases):
            got = det(case)
            assert got == cofactor_det(case)
            assert not got or k < 2


def permutation_sign(perm) -> int:
    """(-1) to the number of inversions of `perm`."""
    inversions = sum(perm[i] > perm[j]
                     for i, j in combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def test_det_of_a_permutation_matrix_is_its_sign():
    reg = abc_registry()
    for size in range(1, 7):
        for perm in permutations(range(size)):
            rows = [[reg.const(int(perm[i] == j)) for j in range(size)]
                    for i in range(size)]
            assert det(rows) == \
                reg.const(permutation_sign(perm))


def test_det_transpose_invariant():
    rng = random.Random(23)
    reg = abc_registry()
    rows = [[random_poly(reg, rng, max_terms=2, max_degree=1)
             for _ in range(4)] for _ in range(4)]
    transposed = [list(col) for col in zip(*rows)]
    assert det(rows) == det(transposed)


# ----------------------------------------------------------------------
# rational rank and nullspaces


def test_rank_rational_goldens():
    F = Fraction
    assert rank_rational([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == 1
    assert rank_rational([{0: F(1)}, {1: F(1)}]) == 2
    assert rank_rational([{0: F(0), 1: F(0)}]) == 0
    assert rank_rational([]) == 0
    # columns are any ordered keys, and integer coefficients are accepted
    assert rank_rational([{10: 1, 3: -1}, {3: 2, 10: -2}, {7: 5}]) == 2


def test_rank_mod_p_matches_the_exact_rank(monkeypatch):
    """On random rational systems of known rank, sparse and with
    denominators, the rank modulo the prime is the exact rank; read with a
    limit, it stops there; and it never exceeds the exact rank, which a
    small prime shows on integer rows that are independent but dependent
    modulo it."""
    F = Fraction
    rng = random.Random(43)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        k = rng.randint(0, min(nrows, ncols))
        U = [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
             for _ in range(nrows)]
        V = [[F(rng.randint(-3, 3), rng.randint(1, 4))
              if rng.random() < 0.7 else 0 for _ in range(ncols)]
             for _ in range(k)]
        rows = [{j: x for j in range(ncols)
                 if (x := sum((U[i][t] * V[t][j] for t in range(k)), F(0)))}
                for i in range(nrows)]
        rows = [{j: int(x) if x.denominator == 1 and rng.random() < 0.5
                 else x for j, x in row.items()} for row in rows]
        exact = rank_rational(rows)
        assert rank_mod_p(rows, ncols) == exact
        assert rank_mod_p(rows, exact - 1) == max(exact - 1, 0)
    assert rank_mod_p([{0: 1, 1: F(1, 2)}, {0: 2, 1: 1}, {2: 7}], 3) == 2
    assert rank_mod_p([], 4) == 0
    rows = [{0: 1, 1: 1}, {0: 1, 1: 4}]  # determinant 3
    assert rank_rational(rows) == 2
    monkeypatch.setattr(importlib.import_module("gnlab.poly"), "PRIME", 3)
    assert rank_mod_p(rows, 2) == 1


def test_nullspace_goldens():
    F = Fraction
    assert sparse_nullspace([{0: F(1), 1: F(-1)}], ncols=2) == [{0: 1, 1: 1}]
    assert sparse_nullspace([{0: F(1)}, {1: F(1)}], ncols=2) == []
    assert sparse_nullspace([], ncols=2) == [{0: 1}, {1: 1}]
    assert sparse_nullspace([{1: F(2), 2: F(4)}], ncols=3) == [
        {0: 1}, {1: -2, 2: 1}]
    # every returned vector solves the system, keys by increasing column
    rng = random.Random(37)
    for _ in range(10):
        rows = [{i: F(rng.randint(-4, 4)) for i in range(5)}
                for _ in range(3)]
        for vec in sparse_nullspace(rows, ncols=5):
            assert list(vec) == sorted(vec)
            assert all(sum(r[i] * v for i, v in vec.items()) == 0
                       for r in rows)


def test_sparse_nullspace_matches_dense():
    """Against sympy's dense nullspace, which uses the same
    parametrisation: 1 at the free column, 0 at the other free columns."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    F = Fraction
    for _ in range(200):
        ncols = rng.randint(1, 7)
        dense = [[rng.randint(-3, 3) if rng.random() < 0.4 else 0
                  for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
        sparse = [{i: F(v) for i, v in enumerate(row) if v} for row in dense]
        rng.shuffle(sparse)
        got = sparse_nullspace(sparse, ncols=ncols)
        want = [{i: F(int(x.p), int(x.q)) for i, x in enumerate(col) if x}
                for col in sympy.Matrix(len(dense), ncols,
                                        sum(dense, [])).nullspace()]
        assert got == want
        assert rank_rational(sparse) == ncols - len(got)


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
        assert poly_from_json(reg, json.loads(poly_json(f))) == f


def _json_cases():
    """(label, polynomial) pairs for the JSON writer: the edge shapes,
    a registry whose index order is not name order, and one wide enough
    that its monomials are rendered in several groups."""
    reg = VarRegistry(["h", "xp", "xm"])
    h, xp, xm = reg.poly("h"), reg.poly("xp"), reg.poly("xm")
    yield "zero", reg.zero()
    yield "constant", reg.const(Fraction(-7, 3))
    yield "fractions", Fraction(5, 2) * xp * xm ** 3 - Fraction(1, 9) * h + 4
    yield "unsorted_names", h ** 2 + 4 * xp * xm - 2 * xm ** 2 * xp
    names = [f"v{k:02d}" for k in range(40)]
    random.Random(5).shuffle(names)
    wide = VarRegistry(names)
    yield "wide", random_poly(wide, random.Random(6), max_terms=30,
                              max_degree=6)


@pytest.mark.parametrize("pad", ["", "  ", " " * 8])
@pytest.mark.parametrize("label,poly", list(_json_cases()),
                         ids=[label for label, _ in _json_cases()])
def test_to_json_matches_reference(label, poly, pad):
    assert poly_json(poly, pad) == poly_json_reference(poly, pad)


def test_wide_registry_text():
    names = [f"v{k:02d}" for k in range(40)]
    random.Random(7).shuffle(names)
    reg = VarRegistry(names)
    rng = random.Random(8)
    for _ in range(10):
        f = random_poly(reg, rng, max_terms=20, max_degree=6)
        assert parse_polynomial(f.text(), reg) == f


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
    # the bound is checked on the terms before any expansion, even when
    # a constant image, zero included, would cancel the high part
    for const in (reg.zero(), reg.const(Fraction(3, 2))):
        with pytest.raises(BudgetExceeded):
            (a ** 128 * b).substitute({"a": a * b, "b": const})
    with pytest.raises(BudgetExceeded):
        det([[a ** 200, b], [a, b ** 100]])
    with pytest.raises(BudgetExceeded):
        poly_from_json(reg, {"terms": [{"coeff": "1",
                                        "monomial": {"a": 256}}]})
    # the cap is on the total degree, not on each exponent
    assert Polynomial(reg, {monomial({0: 200, 1: 55}): 1}).total_degree() \
        == 255
    with pytest.raises(BudgetExceeded):
        Polynomial(reg, {monomial({0: 200, 1: 200}): 1})
    with pytest.raises(BudgetExceeded):
        poly_from_json(reg, {"terms": [{"coeff": "1",
                                        "monomial": {"a": 200, "b": 56}}]})
