"""Determinant invariants: frozen matrices and coefficients at small
levels, a cofactor-oracle cross-check at level 4, annihilation,
intertwining, grading, and the degree-by-degree ansatz solver.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import cofactor_det
from gnlab import (BudgetExceeded, PolyMatrix, build_gn, casimir,
                   casimir_matrix, check_grading, check_uniqueness,
                   solve_ansatz, verify_annihilation, verify_intertwining)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus


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
    assert got.is_symmetric()


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


# SHA-256 of json.dumps(C_n.to_json(), sort_keys=True, separators=(",", ":")).
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
    text = json.dumps(casimir(n).polynomial.to_json(), sort_keys=True,
                      separators=(",", ":"))
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
