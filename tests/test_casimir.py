"""Determinant invariants: frozen matrices and coefficients at small
levels, a cofactor-oracle cross-check at level 4, annihilation,
intertwining, grading, and the degree-by-degree ansatz solver with an
ungraded oracle and an all-field, per-column row-build oracle.
"""

import dataclasses
import hashlib
import importlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import cofactor_det, poly_json
from gnlab import (BudgetExceeded, PolyMatrix, Polynomial, build_coadjoint,
                   build_gn, casimir, casimir_matrix, check_grading,
                   check_uniqueness, solve_ansatz, sparse_nullspace,
                   verify_annihilation, verify_intertwining)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.poly import derive, monomial

# the package exports the function `casimir`, which hides the module
casimir_module = importlib.import_module("gnlab.casimir")


def test_matrix_level2():
    alg = build_gn(2)
    P = alg.basis.poly
    h, xm, xp = P(H), P(X_MINUS), P(X_PLUS)
    assert casimir_matrix(2, alg) == PolyMatrix.from_rows(
        [[-2 * xm, h], [h, 2 * xp]])


def test_matrix_level3():
    alg = build_gn(3)
    P = alg.basis.poly
    want = PolyMatrix.from_rows([
        [P(central(1, 1)), -P(y_minus(1)), P(y_plus(1))],
        [-P(y_minus(1)), -2 * P(X_MINUS), P(H)],
        [P(y_plus(1)), P(H), 2 * P(X_PLUS)],
    ])
    got = casimir_matrix(3, alg)
    assert got == want
    assert got.transpose() == got


def test_invariant_level2():
    result = casimir(2)
    alg_reg = result.polynomial.registry
    P = alg_reg.poly
    assert result.polynomial == P("h") ** 2 + 4 * P("xp") * P("xm")
    assert result.polynomial.text() == "h^2 + 4*xp*xm"
    assert result.degree == 2


def test_invariant_level3_coefficients():
    c = casimir(3).polynomial
    assert len(c.terms) == 5
    assert c.coefficient({"z1_1": 1, "h": 2}) == 1
    assert c.coefficient({"z1_1": 1, "xp": 1, "xm": 1}) == 4
    assert c.coefficient({"h": 1, "y1m": 1, "y1p": 1}) == 2
    assert c.coefficient({"xp": 1, "y1m": 2}) == 2
    assert c.coefficient({"xm": 1, "y1p": 2}) == -2


# SHA-256 of json.dumps(json.loads(poly_json(C_n)), sort_keys=True,
# separators=(",", ":")).
# The term list keeps its order under sort_keys, so these pin the canonical
# term order as well as every coefficient.
CANONICAL_JSON_SHA256 = {
    3: "c2c2441104bfd495635fc3af66cf07eb80a2175334446b608613ea03235efa88",
    4: "b46fb39d31e715607ad823ce90865f5ff8eda894f7ea1b681541d26c0935c534",
    5: "44274c2d3c1cf506af76ce25029dc7a6366e39f7458f4a7eab73632dbcbbb986",
    6: "464f6666019fb6a25aa2efafec9c2b173ac4a5f571ef8355306125d3b3be904f",
}


@pytest.mark.parametrize("n", sorted(CANONICAL_JSON_SHA256))
def test_canonical_json_golden(n):
    text = json.dumps(json.loads(poly_json(casimir(n).polynomial)),
                      sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == CANONICAL_JSON_SHA256[n]


def test_invariant_level4_against_cofactor_oracle():
    alg = build_gn(4)
    P = alg.basis.poly
    # the bordered matrix written out by hand, oracle-expanded
    rows = [
        [P(central(1, 1)), P(central(1, 2)),
         -P(y_minus(1)), P(y_plus(1))],
        [P(central(1, 2)), P(central(2, 2)),
         -P(y_minus(2)), P(y_plus(2))],
        [-P(y_minus(1)), -P(y_minus(2)), -2 * P(X_MINUS), P(H)],
        [P(y_plus(1)), P(y_plus(2)), P(H), 2 * P(X_PLUS)],
    ]
    want = -cofactor_det(rows)
    got = casimir(4, alg).polynomial
    assert got == want
    # numeric spot check at a pinned rational point
    point = {"h": 3, "xm": Fraction(-1, 2), "xp": 2,
             "y1m": 1, "y1p": -2, "y2m": Fraction(5, 3), "y2p": 0,
             "z1_1": 2, "z1_2": -1, "z2_2": 4}
    assert got.eval(point) == want.eval(point)


def test_degree_and_grading():
    for n in (2, 3, 4, 5):
        assert casimir(n).degree == n
        assert check_grading(n).passed


def test_casimir_refuses_levels_above_the_limit(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("expanded a level above the limit")

    monkeypatch.setattr(casimir_module, "casimir_matrix", no_expansion)
    monkeypatch.setattr(casimir_module, "det", no_expansion)
    n = casimir_module.MAX_CASIMIR_N + 1
    with pytest.raises(BudgetExceeded, match=f"levels above {n - 1} "):
        casimir(n)


def test_grading_check_catches_a_wrong_grade(monkeypatch):
    real = casimir_module._grading

    def corrupt(alg):
        grading = real(alg)
        i = alg.basis.var(y_plus(1)).index
        grading[i] = (2,) + grading[i][1:]  # y1p given the weight of x+
        return grading

    monkeypatch.setattr(casimir_module, "_grading", corrupt)
    rep = check_grading(3)
    assert not rep.passed
    # [x-, y1p] = y1m now sums to weight 0 but y1m has weight -1
    assert "[xm,y1p] is not of grade (0, 1)" in rep.failures
    assert rep.data == {"n": 3, "terms": 5}


def test_grading_check_catches_an_inhomogeneous_bracket():
    alg = build_gn(3)
    assert check_grading(3, alg).passed
    P = alg.basis.poly
    # y1p has grade (1, 1) = grade(x+) + grade(y1m); z1_1 has (0, 2)
    alg.constants._table[(X_PLUS, y_minus(1))] = \
        P(y_plus(1)) + P(central(1, 1))
    rep = check_grading(3, alg)
    assert rep.failures == ["[xp,y1m] is not of grade (1, 1)"]


def test_annihilation_small_levels():
    for n in (2, 3):
        rep = verify_annihilation(n)
        assert rep.passed
        assert rep.data["fields"] == len(build_gn(n).basis.order)


def test_intertwining_small_levels():
    for n in (2, 3):
        assert verify_intertwining(n).passed


# ----------------------------------------------------------------------
# ansatz


def test_ansatz_level2_degree2_rediscovers_the_invariant():
    alg = build_gn(2)
    sol = solve_ansatz(2, 2, alg)
    assert sol.dimension == 1
    found = sol.basis[0]
    c2 = casimir(2, alg).polynomial
    # equality up to scale: cross-multiply by matching one coefficient
    scale = c2.coefficient({"h": 2}) / found.coefficient({"h": 2})
    assert found * scale == c2


def test_ansatz_level3_low_degrees_are_central():
    alg = build_gn(3)
    z = alg.registry.poly("z1_1")
    sol1 = solve_ansatz(3, 1, alg)
    assert sol1.dimension == 1
    assert sol1.basis[0] * (1 / sol1.basis[0].coefficient({"z1_1": 1})) == z
    sol2 = solve_ansatz(3, 2, alg)
    assert sol2.dimension == 1
    found = sol2.basis[0]
    assert found * (1 / found.coefficient({"z1_1": 2})) == z * z


def test_ansatz_rejects_bad_degree_and_budget():
    with pytest.raises(ValueError):
        solve_ansatz(2, 0)
    with pytest.raises(BudgetExceeded):
        solve_ansatz(4, 4, budget=10)


def _ungraded_ansatz(n, degree):
    """The invariants of one degree from the whole system over every
    degree-d monomial, with no grading: one row per (field, produced
    monomial), one column per monomial in `combinations_with_replacement`
    order over the canonical generators."""
    alg = build_gn(n)
    reg = alg.registry
    gens = [alg.basis.poly(g) for g in alg.basis.order]
    columns = []
    for combo in combinations_with_replacement(gens, degree):
        p = reg.const(1)
        for g in combo:
            p = p * g
        columns.append(p)
    fields = build_coadjoint(n, alg)
    rows = {}
    for col, p in enumerate(columns):
        for fi, field in enumerate(fields):
            for mono, c in field.apply(p).terms.items():
                rows.setdefault((fi, mono), {})[col] = c
    vectors = sparse_nullspace([rows[k] for k in sorted(rows)],
                               ncols=len(columns))
    basis = [Polynomial(reg, {next(iter(columns[i].terms)): v
                              for i, v in vec.items()})
             for vec in vectors]
    return len(columns), basis


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_weight_zero_columns_keep_the_full_enumeration_order(n):
    alg = build_gn(n)
    grading = casimir_module._grading(alg)
    weight = {"xp": 2, "xm": -2, "yp": 1, "ym": -1}
    for degree in range(1, 5):
        want = [monomial(Counter(alg.basis.var(g).index for g in combo))
                for combo in combinations_with_replacement(alg.basis.order,
                                                           degree)
                if sum(weight.get(g.kind, 0) for g in combo) == 0]
        blocks = casimir_module._weight_zero_blocks(alg, grading, degree)
        got = sorted((col, mono, ladder) for ladder, block in blocks.items()
                     for col, mono in block)
        assert [col for col, _, _ in got] == list(range(len(want)))
        assert [mono for _, mono, _ in got] == want
        # the packed ladder is the grade after its zero h-weight
        for _, mono, ladder in got:
            assert casimir_module._grade_of(grading, mono, n - 1) == (0, *(
                (ladder >> (16 * k)) & 0xFFFF for k in range(n - 2)))


@pytest.mark.parametrize("n,degree", [(3, 3), (4, 3), (4, 4), (5, 3)])
def test_graded_ansatz_matches_ungraded_oracle(n, degree):
    count, want = _ungraded_ansatz(n, degree)
    sol = solve_ansatz(n, degree)
    assert sol.monomials == count
    assert len(sol.basis) == len(want) > 0
    for got, ref in zip(sol.basis, want):
        assert list(got.terms.items()) == list(ref.terms.items())


def _all_field_ansatz(n, degree):
    """The row build the generating-set one replaced: every nonzero
    coadjoint field applied by one `derive` call per weight-0 column,
    solved grade block by grade block, basis ordered by free column."""
    alg = build_gn(n)
    grading = casimir_module._grading(alg)
    columns = sorted(column for block in casimir_module._weight_zero_blocks(
        alg, grading, degree).values() for column in block)
    blocks = {}
    for col, mono in columns:
        grade = casimir_module._grade_of(grading, mono, n - 1)
        blocks.setdefault(grade, []).append((col, mono))
    fields = [(f.terms, f.degree) for f in build_coadjoint(n, alg)
              if f.coeffs]
    found = []
    for block in blocks.values():
        rows = {}
        for j, (_, mono) in enumerate(block):
            for fi, (terms, field_degree) in enumerate(fields):
                for m2, c2 in derive({mono: 1}, degree, terms,
                                     field_degree).items():
                    rows.setdefault((fi, m2), {})[j] = c2
        for vec in sparse_nullspace([rows[k] for k in sorted(rows)],
                                    ncols=len(block)):
            found.append((block[max(vec)][0], Polynomial(
                alg.registry, {block[j][1]: v for j, v in vec.items()})))
    found.sort(key=lambda item: item[0])
    return [p for _, p in found]


@pytest.mark.parametrize("n,degree", [(3, 3), (4, 4), (5, 4), (5, 5),
                                      (6, 4), (6, 5), (7, 4)])
def test_generator_rows_match_the_all_field_oracle(monkeypatch, n, degree):
    want = _all_field_ansatz(n, degree)

    def no_derive(*args):
        raise AssertionError("solve_ansatz called derive")

    monkeypatch.setattr(importlib.import_module("gnlab.poly"), "derive",
                        no_derive)
    monkeypatch.setattr(importlib.import_module("gnlab.representations"),
                        "derive", no_derive)
    sol = solve_ansatz(n, degree)
    assert len(sol.basis) == len(want) > 0
    for got, ref in zip(sol.basis, want):
        assert list(got.terms.items()) == list(ref.terms.items())


def test_generation_check_needs_every_ladder_source(monkeypatch):
    alg = build_gn(5)
    sources = [X_PLUS, X_MINUS, y_minus(1), y_minus(2), y_minus(3)]
    casimir_module._check_generates(alg, sources)
    del sources[3]
    with pytest.raises(ValueError, match="y2m, y2p, .*z2_2"):
        casimir_module._check_generates(alg, sources)
    # and solve_ansatz refuses rows from a set that does not generate
    monkeypatch.setattr(casimir_module, "y_minus", lambda i: y_minus(1))
    with pytest.raises(ValueError, match="do not generate g_5"):
        solve_ansatz(5, 2)


@pytest.mark.parametrize("degree", [2, 4])
def test_uniqueness_fails_when_a_basis_vector_is_dropped(monkeypatch,
                                                         degree):
    real = casimir_module.solve_ansatz

    def drop_first(n, d, *args, **kwargs):
        sol = real(n, d, *args, **kwargs)
        if d != degree:
            return sol
        return dataclasses.replace(sol, basis=sol.basis[1:])

    monkeypatch.setattr(casimir_module, "solve_ansatz", drop_first)
    rep = check_uniqueness(4, max_degree=4)
    want = {2: 6, 4: 16}[degree]
    assert not rep.passed
    assert rep.data["dimensions"][str(degree)] == want - 1
    assert (f"degree-{degree} invariants have dimension {want - 1}, "
            f"not {want}") in rep.failures


def test_uniqueness_level3():
    rep = check_uniqueness(3, max_degree=3)
    assert rep.passed
    assert rep.data["dimensions"] == {"1": 1, "2": 1, "3": 2}
    assert rep.data["contains_casimir"] is True


def test_uniqueness_default_stops_below_degree_n():
    rep = check_uniqueness(3)
    assert rep.passed
    assert "contains_casimir" not in rep.data
    assert set(rep.data["dimensions"]) == {"1", "2"}
