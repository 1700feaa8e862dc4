"""Determinant invariants: frozen matrices and coefficients at small
levels, a cofactor-oracle cross-check at level 4, annihilation,
intertwining, grading, and the degree-by-degree ansatz solver with an
ungraded oracle and an all-field, per-column row-build oracle.
"""

import copy
import dataclasses
import hashlib
import importlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import cofactor_det, evaluate, grade_of, poly_json
from gnlab import (BudgetExceeded, Polynomial, build_coadjoint,
                   build_gn, casimir, casimir_matrix, check_grading,
                   check_uniqueness, det, solve_ansatz, sparse_nullspace,
                   verify_annihilation, verify_intertwining)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.poly import derive, monomial

# the package exports the function `casimir`, which hides the module
casimir_module = importlib.import_module("gnlab.casimir")


def test_matrix_level2():
    alg = build_gn(2)
    P = alg.basis.poly
    h, xm, xp = P(H), P(X_MINUS), P(X_PLUS)
    assert casimir_matrix(alg) == ((-2 * xm, h), (h, 2 * xp))


def test_matrix_level3():
    alg = build_gn(3)
    P = alg.basis.poly
    want = (
        (P(central(1, 1)), -P(y_minus(1)), P(y_plus(1))),
        (-P(y_minus(1)), -2 * P(X_MINUS), P(H)),
        (P(y_plus(1)), P(H), 2 * P(X_PLUS)),
    )
    got = casimir_matrix(alg)
    assert got == want
    assert all(got[i][j] == got[j][i] for i in range(3) for j in range(3))


def test_invariant_level2():
    result = casimir(build_gn(2))
    alg_reg = result.polynomial.registry
    P = alg_reg.poly
    assert result.polynomial == P("h") ** 2 + 4 * P("xp") * P("xm")
    assert result.polynomial.text() == "h^2 + 4*xp*xm"
    assert result.degree == 2


def test_invariant_level3_coefficients():
    c = casimir(build_gn(3)).polynomial
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
    c = casimir(build_gn(n)).polynomial
    text = json.dumps(json.loads(poly_json(c)), sort_keys=True,
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
    got = casimir(alg).polynomial
    assert got == want
    # numeric spot check at a pinned rational point
    point = {"h": 3, "xm": Fraction(-1, 2), "xp": 2,
             "y1m": 1, "y1p": -2, "y2m": Fraction(5, 3), "y2p": 0,
             "z1_1": 2, "z1_2": -1, "z2_2": 4}
    assert evaluate(got, point) == evaluate(want, point)


def test_det_peak_memory_stays_near_its_result():
    """The complementary-minor expansion holds no minor of more than half
    the rows, rounded up: the traced peak of det(M_8) stays within 2.5
    times what is left allocated after it, its 18,155-term result.  A
    first-row chain, which holds the 7x7 minors of M_8, peaks near 4.9
    times."""
    m = casimir_matrix(build_gn(8))
    tracemalloc.start()
    try:
        result = det(m)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.terms) == 18155
    assert peak <= 2.5 * size


def test_degree_and_grading():
    for n in (2, 3, 4, 5):
        cas = casimir(build_gn(n))
        assert cas.degree == n
        assert check_grading(cas).passed


def test_casimir_refuses_levels_above_the_limit(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("expanded a level above the limit")

    monkeypatch.setattr(casimir_module, "casimir_matrix", no_expansion)
    monkeypatch.setattr(casimir_module, "det", no_expansion)
    n = casimir_module.MAX_CASIMIR_N + 1
    with pytest.raises(BudgetExceeded, match=f"levels above {n - 1} "):
        casimir(build_gn(n))


def test_grading_check_catches_a_wrong_grade(monkeypatch):
    real = casimir_module._grading

    def corrupt(alg):
        grading = real(alg)
        i = alg.basis.var(y_plus(1)).index
        grading[i] = (2,) + grading[i][1:]  # y1p given the weight of x+
        return grading

    monkeypatch.setattr(casimir_module, "_grading", corrupt)
    rep = check_grading(casimir(build_gn(3)))
    assert not rep.passed
    # [x-, y1p] = y1m now sums to weight 0 but y1m has weight -1
    assert "[xm,y1p] is not of grade (0, 1)" in rep.failures
    assert rep.data == {"n": 3, "terms": 5}


@pytest.mark.parametrize("n", [3, 6, 8])
def test_grading_check_catches_a_monomial_of_wrong_degree_or_weight(n):
    """One monomial of degree n + 1, or of degree n and h-weight 2 or -3,
    added to C_n fails the check once; the weight is read across weight
    classes.  A result holds -det M alone, so the monomial is set into a
    copy past the frozen dataclass."""
    cas = casimir(build_gn(n))
    P = cas.algebra.basis.poly
    h = P(H)
    for extra, failure in (
            (h ** (n + 1), f"monomial of degree {n + 1} present"),
            (P(X_PLUS) * h ** (n - 1), "monomial with weight 2 present"),
            (P(X_MINUS) * P(y_minus(1)) * h ** (n - 2),
             "monomial with weight -3 present")):
        bad = copy.copy(cas)
        object.__setattr__(bad, "polynomial", cas.polynomial + extra)
        rep = check_grading(bad)
        assert rep.failures == [failure]
        assert rep.data == {"n": n, "terms": len(cas.polynomial.terms) + 1}


def test_grading_check_catches_an_inhomogeneous_bracket():
    alg = build_gn(3)
    cas = casimir(alg)
    assert check_grading(cas).passed
    pos = alg.basis.index
    # y1p has grade (1, 1) = grade(x+) + grade(y1m); z1_1 has (0, 2)
    alg.constants.brackets[pos(X_PLUS)][pos(y_minus(1))] = \
        {pos(y_plus(1)): 1, pos(central(1, 1)): 1}
    rep = check_grading(cas)
    assert rep.failures == ["[xp,y1m] is not of grade (1, 1)"]


def test_annihilation_small_levels():
    for n in (2, 3):
        rep = verify_annihilation(casimir(build_gn(n)))
        assert rep.passed
        assert rep.data["fields"] == len(build_gn(n).basis.order)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_annihilation_matches_the_all_field_oracle(n):
    """`verify_annihilation` applies no field to C_n; every one of the T_n
    fields, applied here, must kill it."""
    cas = casimir(build_gn(n))
    assert verify_annihilation(cas).passed
    for field in build_coadjoint(cas.algebra):
        assert not field.apply(cas.polynomial), field.source.name


def test_a_result_refuses_a_polynomial_other_than_minus_det_m():
    """C_n = -det M, the determinant premise of `verify_annihilation`, holds
    by construction: `replace` cannot set a polynomial.  The one tried
    here, C_n + x-, is one the certificate must never pass: x- is killed by
    the fields of x- and the y_{i,-}, but not by x+'s."""
    cas = casimir(build_gn(4))
    alg = cas.algebra
    moved = cas.polynomial + alg.basis.poly(X_MINUS)
    for name, value in (("polynomial", moved), ("degree", 4)):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cas, **{name: value})
    x_plus = build_coadjoint(alg)[alg.basis.index(X_PLUS)]
    assert x_plus.apply(moved)


def test_annihilation_and_intertwining_fail_on_a_rescaled_corner():
    """M_5 with its x+ corner 3 x+, so C_n is rebuilt as -det of it: the
    determinant premise holds, the identity does not, and the all-field
    oracle finds the fields that no longer kill the polynomial."""
    cas = casimir(build_gn(5))
    alg = cas.algebra
    m = [list(row) for row in cas.matrix]
    m[-1][-1] = 3 * alg.basis.poly(X_PLUS)
    m = tuple(map(tuple, m))
    bad = dataclasses.replace(cas, matrix=m)
    assert bad.polynomial == -det(m)
    moved = [f.source.name for f in build_coadjoint(alg)
             if f.apply(bad.polynomial)]
    assert moved == ["xm", "xp", "y1m", "y2m", "y3m"]
    want = [f"intertwining fails for {g}" for g in moved]
    assert verify_intertwining(bad).failures == want
    assert verify_annihilation(bad).failures == want


def test_annihilation_names_a_quotient_image_with_a_trace(monkeypatch):
    exact = casimir_module.build_quotient_rep

    def traced(alg):
        rep = exact(alg)
        q = [list(row) for row in rep.of(H)]
        q[0][0] += 1
        return dataclasses.replace(rep, image={**rep.image, H: q})

    monkeypatch.setattr(casimir_module, "build_quotient_rep", traced)
    assert verify_annihilation(casimir(build_gn(5))).failures == [
        "intertwining fails for h", "quotient image of h has trace 1"]


def test_intertwining_small_levels():
    for n in (2, 3):
        assert verify_intertwining(casimir(build_gn(n))).passed


def test_intertwining_reports_a_perturbed_quotient(monkeypatch):
    """Doubling the quotient image of x+, and giving the central z_{1,1}
    (which the quotient kills) a nonzero image, each break the identity
    for that generator alone."""
    exact = casimir_module.build_quotient_rep

    def perturbed(alg):
        n = alg.n
        rep = exact(alg)
        z11 = [[0] * n for _ in range(n)]
        z11[0][0] = 1
        return dataclasses.replace(rep, image={
            **rep.image, central(1, 1): z11,
            X_PLUS: [[2 * v for v in row] for row in rep.of(X_PLUS)]})

    monkeypatch.setattr(casimir_module, "build_quotient_rep", perturbed)
    assert verify_intertwining(casimir(build_gn(3))).failures == [
        "intertwining fails for xp", "intertwining fails for z1_1"]


# ----------------------------------------------------------------------
# ansatz


def test_ansatz_level2_degree2_rediscovers_the_invariant():
    alg = build_gn(2)
    sol = solve_ansatz(alg, 2)
    assert sol.dimension == 1
    found = sol.basis[0]
    c2 = casimir(alg).polynomial
    # equality up to scale: cross-multiply by matching one coefficient
    scale = c2.coefficient({"h": 2}) / found.coefficient({"h": 2})
    assert found * scale == c2


def test_ansatz_level3_low_degrees_are_central():
    alg = build_gn(3)
    z = alg.registry.poly("z1_1")
    sol1 = solve_ansatz(alg, 1)
    assert sol1.dimension == 1
    assert sol1.basis[0] * (1 / sol1.basis[0].coefficient({"z1_1": 1})) == z
    sol2 = solve_ansatz(alg, 2)
    assert sol2.dimension == 1
    found = sol2.basis[0]
    assert found * (1 / found.coefficient({"z1_1": 2})) == z * z


def test_ansatz_rejects_bad_degree_and_budget():
    with pytest.raises(ValueError):
        solve_ansatz(build_gn(2), 0)
    with pytest.raises(BudgetExceeded):
        solve_ansatz(build_gn(4), 4, budget=10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weight_zero_count_equals_the_enumeration(n):
    alg = build_gn(n)
    grading = casimir_module._grading(alg)
    for degree in range(1, 6):
        blocks = casimir_module._weight_zero_blocks(alg, grading, degree)
        assert casimir_module._weight_zero_count(n, degree) == \
            sum(map(len, blocks.values()))


def test_ansatz_budget_counts_weight_zero_monomials():
    """The default budget takes (6, 6) and (9, 4), and the count returned is
    still that of every monomial."""
    count = casimir_module.ansatz_monomials
    assert casimir_module._weight_zero_count(6, 6) == 41_034
    assert casimir_module._weight_zero_count(9, 4) == 60_168
    assert count(6, 6) == 230_230
    assert count(9, 4) == 194_580
    assert count(6, 6, budget=41_034) == 230_230
    with pytest.raises(BudgetExceeded):
        count(6, 6, budget=41_033)


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
    fields = build_coadjoint(alg)
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
            assert grade_of(grading, mono) == (0, *(
                (ladder >> (16 * k)) & 0xFFFF for k in range(n - 2)))


@pytest.mark.parametrize("n,degree", [(3, 3), (4, 3), (4, 4), (5, 3)])
def test_graded_ansatz_matches_ungraded_oracle(n, degree):
    count, want = _ungraded_ansatz(n, degree)
    sol = solve_ansatz(build_gn(n), degree)
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
        grade = grade_of(grading, mono)
        blocks.setdefault(grade, []).append((col, mono))
    fields = [(f.terms, f.degree) for f in build_coadjoint(alg)
              if f.terms]
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
    sol = solve_ansatz(build_gn(n), degree)
    assert len(sol.basis) == len(want) > 0
    for got, ref in zip(sol.basis, want):
        assert list(got.terms.items()) == list(ref.terms.items())


def test_generation_check_needs_every_ladder_source(monkeypatch):
    alg = build_gn(5)
    assert casimir_module.generating_set(alg) == \
        [X_PLUS, X_MINUS, y_minus(1), y_minus(2), y_minus(3)]
    # y_{2,-} left out: what only it reaches is named
    monkeypatch.setattr(casimir_module, "y_minus",
                        lambda i: y_minus(1 if i == 2 else i))
    with pytest.raises(ValueError, match="y2m, y2p, .*z2_2"):
        casimir_module.generating_set(alg)
    # and solve_ansatz refuses a set that does not generate
    monkeypatch.setattr(casimir_module, "y_minus", lambda i: y_minus(1))
    with pytest.raises(ValueError, match="do not generate g_5"):
        solve_ansatz(build_gn(5), 2)


@pytest.mark.parametrize("degree", [2, 4])
def test_uniqueness_fails_when_a_basis_vector_is_dropped(monkeypatch,
                                                         degree):
    """Every modular rank falls short, so every degree takes the exact
    path, and `solve_ansatz` there loses one basis vector at the given
    degree: below degree n (2) and at it (4)."""
    real = casimir_module.solve_ansatz
    calls = []

    def drop_first(alg, d, *args, **kwargs):
        calls.append(d)
        sol = real(alg, d, *args, **kwargs)
        if d != degree:
            return sol
        return dataclasses.replace(sol, basis=sol.basis[1:])

    monkeypatch.setattr(casimir_module, "rank_mod_p", lambda rows, limit: -1)
    monkeypatch.setattr(casimir_module, "solve_ansatz", drop_first)
    rep = check_uniqueness(casimir(build_gn(4)), max_degree=4)
    assert calls == [1, 2, 3, 4]
    want = {2: 6, 4: 16}[degree]
    assert rep.failures == [f"degree-{degree} invariants have dimension "
                            f"{want - 1}, not {want}"] + [
        "the degree-n invariant is outside the ansatz span"] * (degree == 4)
    assert rep.data["dimensions"][str(degree)] == want - 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_modular_certificate_matches_the_exact_ansatz(n):
    """At every degree `verify` sweeps by default, min(n - 1, 4), the
    modular certificate holds, and its dimension is that of the exact
    solution, whose every basis vector is central."""
    alg = build_gn(n)
    z_idx = set(map(alg.basis.index, alg.basis.centrals))
    for degree in range(1, min(n - 1, 4) + 1):
        sol = solve_ansatz(alg, degree)
        assert casimir_module._central_kernel(alg, degree) == sol.dimension
        assert all(p.support_indices() <= z_idx for p in sol.basis)


def test_a_modular_shortfall_takes_the_exact_path(monkeypatch):
    """Forced shortfalls, by a rank that always falls short or by the
    prime 3, under which some blocks lose rank, send degrees to the exact
    `solve_ansatz` and give the same Reports."""
    poly_module = importlib.import_module("gnlab.poly")
    real = casimir_module.solve_ansatz
    calls = []

    def counting(alg, d, *args, **kwargs):
        calls.append((alg.n, d))
        return real(alg, d, *args, **kwargs)

    monkeypatch.setattr(casimir_module, "solve_ansatz", counting)
    sweeps = [(3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 4)]
    want = [check_uniqueness(casimir(build_gn(n)), d) for n, d in sweeps]
    assert calls == [(n, n) for n, d in sweeps if d == n]
    for patch in ((casimir_module, "rank_mod_p", lambda rows, limit: -1),
                  (poly_module, "PRIME", 3)):
        with monkeypatch.context() as m:
            m.setattr(*patch)
            calls.clear()
            got = [check_uniqueness(casimir(build_gn(n)), d)
                   for n, d in sweeps]
        assert got == want
        assert set(calls) > {(n, n) for n, d in sweeps if d == n}


def test_uniqueness_level3():
    rep = check_uniqueness(casimir(build_gn(3)), max_degree=3)
    assert rep.passed
    assert rep.data["dimensions"] == {"1": 1, "2": 1, "3": 2}
    assert rep.data["contains_casimir"] is True


def test_uniqueness_default_stops_below_degree_n():
    rep = check_uniqueness(casimir(build_gn(3)))
    assert rep.passed
    assert "contains_casimir" not in rep.data
    assert set(rep.data["dimensions"]) == {"1", "2"}
