"""Chain construction: generator bookkeeping, the bracket table and its
Lie-Poisson extension (the oracle in conftest), Jacobi, subalgebra/ideal
nesting, the Levi-type split, centre, and invariant counts.
"""

import importlib
import pickle
import random

import pytest

from gnlab import (Generator, RegistryMismatch, beltrametti_blasi, build_gn,
                   canonical_order, check_jacobi, check_levi, check_structure,
                   check_subalgebra_chain, compute_centre, ideal_complement,
                   triangular)
from conftest import commutator_matrix, lie_poisson, random_poly
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus


def test_generator_names_and_validation():
    assert H.name == "h" and X_MINUS.name == "xm" and X_PLUS.name == "xp"
    assert y_minus(2).name == "y2m" and y_plus(1).name == "y1p"
    assert central(3, 1).name == "z1_3"  # order is normalised
    assert central(2, 2).kind == "z"
    with pytest.raises(ValueError):
        Generator("h", i=1)
    with pytest.raises(ValueError):
        Generator("ym", 0)
    with pytest.raises(ValueError):
        Generator("z", 2, 1)
    with pytest.raises(ValueError):
        Generator("w")


def test_generators_are_values_that_stay_valid():
    """Generators compare and hash by value, survive pickling, and stay
    validated when `_replace` builds one."""
    g = y_plus(2)
    assert g == Generator("yp", 2) and hash(g) == hash(Generator("yp", 2))
    assert g != y_minus(2) and repr(g) == "Generator(kind='yp', i=2, j=0)"
    assert pickle.loads(pickle.dumps(g)) == g
    assert g._replace(i=3) == y_plus(3)
    with pytest.raises(ValueError):
        g._replace(i=0)


def test_canonical_order():
    assert [g.name for g in canonical_order(2)] == ["h", "xm", "xp"]
    assert [g.name for g in canonical_order(3)] == \
        ["h", "xm", "xp", "y1m", "y1p", "z1_1"]
    assert [g.name for g in canonical_order(4)] == \
        ["h", "xm", "xp", "y1m", "y1p", "y2m", "y2p",
         "z1_1", "z1_2", "z2_2"]
    for n in range(2, 8):
        assert len(canonical_order(n)) == triangular(n)
    with pytest.raises(ValueError):
        canonical_order(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_registry_holds_the_generators_in_canonical_order(n):
    basis = build_gn(n).basis
    assert [v.name for v in basis.registry.var_ids] == \
        [g.name for g in canonical_order(n)]
    for g in basis.order:
        assert basis.var(g).index == basis.index(g)


def test_generator_variables_of_another_level_are_rejected():
    """Levels 3 and 4 agree on h, ..., y1p; past those a variable of one
    level has a different name at its index in the other."""
    with pytest.raises(RegistryMismatch):
        build_gn(4).basis.poly(y_minus(2)).partial(
            build_gn(3).basis.var(central(1, 1)))
    with pytest.raises(RegistryMismatch):
        build_gn(3).registry.poly(build_gn(4).basis.var(y_minus(2)))


def test_bracket_relation_table():
    alg = build_gn(4)
    P = alg.basis.poly
    c = alg.constants
    assert c.of(X_PLUS, X_MINUS) == P(H)
    assert c.of(X_MINUS, X_PLUS) == -P(H)
    assert c.of(H, X_PLUS) == 2 * P(X_PLUS)
    assert c.of(H, X_MINUS) == -2 * P(X_MINUS)
    for i in (1, 2):
        assert c.of(H, y_plus(i)) == P(y_plus(i))
        assert c.of(H, y_minus(i)) == -P(y_minus(i))
        assert c.of(X_MINUS, y_plus(i)) == P(y_minus(i))
        assert c.of(X_PLUS, y_minus(i)) == P(y_plus(i))
        assert not c.of(X_MINUS, y_minus(i))
        assert not c.of(X_PLUS, y_plus(i))
    assert c.of(y_plus(1), y_minus(1)) == P(central(1, 1))
    assert c.of(y_plus(1), y_minus(2)) == P(central(1, 2))
    assert c.of(y_plus(2), y_minus(1)) == P(central(1, 2))
    assert not c.of(y_plus(1), y_plus(2))
    assert not c.of(y_minus(1), y_minus(2))
    for g in alg.basis.order:
        assert not c.of(central(1, 2), g)


def test_bracket_is_a_biderivation():
    alg = build_gn(3)
    rng = random.Random(13)
    names = [g.name for g in alg.basis.order]
    for _ in range(15):
        f = random_poly(alg.registry, rng, names, max_terms=3, max_degree=2)
        g = random_poly(alg.registry, rng, names, max_terms=3, max_degree=2)
        k = random_poly(alg.registry, rng, names, max_terms=3, max_degree=2)
        assert lie_poisson(alg, f, g) == -lie_poisson(alg, g, f)
        assert lie_poisson(alg, f, g * k) == \
            lie_poisson(alg, f, g) * k + g * lie_poisson(alg, f, k)
        assert lie_poisson(alg, f + g, k) == \
            lie_poisson(alg, f, k) + lie_poisson(alg, g, k)


def test_bracket_jacobi_on_polynomials():
    alg = build_gn(3)
    rng = random.Random(17)
    names = [g.name for g in alg.basis.order]
    for _ in range(8):
        f = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        g = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        k = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        total = (lie_poisson(alg, lie_poisson(alg, f, g), k)
                 + lie_poisson(alg, lie_poisson(alg, g, k), f)
                 + lie_poisson(alg, lie_poisson(alg, k, f), g))
        assert not total


def test_jacobi_check():
    for n in (2, 4):
        rep = check_jacobi(build_gn(n))
        assert rep.passed
        assert rep.data["triples"] == \
            triangular(n) * (triangular(n) - 1) * (triangular(n) - 2) // 6


def test_subalgebra_chain():
    assert check_subalgebra_chain(build_gn(5)).passed
    assert ideal_complement(3) == (y_minus(1), y_plus(1), central(1, 1))
    assert ideal_complement(4) == \
        (y_minus(2), y_plus(2), central(1, 2), central(2, 2))
    with pytest.raises(ValueError):
        check_subalgebra_chain(build_gn(2))
    with pytest.raises(ValueError):
        ideal_complement(2)


def test_levi_split():
    for n in (3, 4):
        rep = check_levi(build_gn(n))
        assert rep.passed
        assert rep.data["radical_dim"] == triangular(n) - 3
    with pytest.raises(ValueError):
        check_levi(build_gn(2))


def test_centre():
    for n, want in ((2, 0), (3, 1), (4, 3), (5, 6)):
        assert len(compute_centre(build_gn(n))) == want == triangular(n - 2)
    # centre vectors live on the z coordinates only
    alg = build_gn(4)
    z_positions = {alg.basis.index(g) for g in alg.basis.centrals}
    for vec in compute_centre(alg):
        assert vec.keys() <= z_positions


def test_commutator_matrix_level2():
    alg = build_gn(2)
    P = alg.basis.poly
    h, xm, xp = P(H), P(X_MINUS), P(X_PLUS)
    zero = alg.registry.zero()
    assert commutator_matrix(alg) == [
        [zero, -2 * xm, 2 * xp],
        [2 * xm, zero, -h],
        [-2 * xp, h, zero],
    ]


def test_commutator_matrix_antisymmetric():
    m = commutator_matrix(build_gn(4))
    assert all(m[i][j] == -m[j][i]
               for i in range(len(m)) for j in range(len(m)))


def test_invariant_count():
    """Both bounds of the commutator rank are 2(n-1), so the rank is
    certified."""
    for n in range(2, 11):
        bb = beltrametti_blasi(build_gn(n))
        assert bb.rank == bb.rank_upper_bound == 2 * (n - 1)
        assert bb.nu == triangular(n - 2) + 1


@pytest.mark.parametrize("n", [2, 3])
def test_certified_rank_matches_rational_function_rank(n):
    """sympy's rank of A(n) over the field of rational functions in the
    generators against the certified rank (n = 4 takes about a minute in
    sympy)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    m = commutator_matrix(build_gn(n))
    exact = DomainMatrix.from_Matrix(sympy.Matrix(
        [[sympy.sympify(e.text().replace("^", "**")) for e in row]
         for row in m])).to_field().rank()
    bb = beltrametti_blasi(build_gn(n))
    assert bb.rank == bb.rank_upper_bound == exact


def test_structure_fails_when_the_rank_bounds_differ(monkeypatch):
    """A specialisation that loses rank leaves the lower bound under the
    upper one: the rank is not certified and the structure check fails."""
    algebra = importlib.import_module("gnlab.algebra")
    exact = algebra.rank_rational
    monkeypatch.setattr(algebra, "rank_rational", lambda rows: exact(rows) - 2)
    bb = beltrametti_blasi(build_gn(3))
    assert (bb.rank, bb.rank_upper_bound) == (2, 4)
    rep = check_structure(build_gn(3))
    assert rep.failures == [
        "commutator rank not certified: specialised rank 2 below the upper "
        "bound 4", "commutator rank 2 != 4", "invariant count 4 != 2"]
    assert rep.data["rank_upper_bound"] == 4


def test_rank_upper_bound_is_not_rounded_without_antisymmetry():
    """Only an antisymmetric matrix has even rank: with the entry [h, x-]
    of A(2) zeroed but [x-, h] kept, the rank is 3, and the upper bound is
    the count of nonzero rows, 3, not 2."""
    alg = build_gn(2)
    del alg.constants.brackets[alg.basis.index(H)][alg.basis.index(X_MINUS)]
    bb = beltrametti_blasi(alg)
    assert (bb.rank, bb.rank_upper_bound) == (3, 3)


def test_structure_report():
    rep = check_structure(build_gn(3))
    assert rep.passed
    assert rep.data["dim"] == 6
    assert rep.data["centre_dim"] == 1
    assert rep.data["nu"] == 2
    assert rep.data["commutator_rank"] == rep.data["rank_upper_bound"] == 4
    d = rep.to_dict()
    assert d["check"] == "structure" and d["passed"] is True
