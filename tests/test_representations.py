"""Matrix representations (faithful and quotient) and the coadjoint
vector fields, with frozen image goldens at small levels.
"""

import random

import pytest

from gnlab import (PhaseContext, PolyMatrix, build_coadjoint,
                   build_faithful_rep, build_gn, build_quotient_rep,
                   check_field_homomorphism, check_homomorphism, triangular)
from conftest import random_poly
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.representations import MatrixRep


def ints(matrix):
    return [[int(v) for v in row] for row in matrix.constant_entries()]


def test_faithful_level2_goldens():
    rep = build_faithful_rep(2)
    assert rep.size == 2
    assert ints(rep.of(H)) == [[1, 0], [0, -1]]
    assert ints(rep.of(X_PLUS)) == [[0, 1], [0, 0]]
    assert ints(rep.of(X_MINUS)) == [[0, 0], [1, 0]]


def test_faithful_level3_goldens():
    rep = build_faithful_rep(3)
    assert rep.size == 4
    assert ints(rep.of(H)) == [[0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, -1, 0], [0, 0, 0, 0]]
    assert ints(rep.of(y_plus(1))) == [[0, 0, 0, 0], [1, 0, 0, 0],
                                       [0, 0, 0, 0], [0, 0, 1, 0]]
    assert ints(rep.of(y_minus(1))) == [[0, 0, 0, 0], [0, 0, 0, 0],
                                        [1, 0, 0, 0], [0, -1, 0, 0]]
    assert ints(rep.of(central(1, 1))) == [[0, 0, 0, 0], [0, 0, 0, 0],
                                           [0, 0, 0, 0], [2, 0, 0, 0]]


def test_faithful_level4_offdiagonal_central():
    rep = build_faithful_rep(4)
    m = ints(rep.of(central(1, 2)))
    # z_{1,2} sits on the symmetric pair of slots (5,2) and (6,1), 1-based
    assert m[4][1] == 1 and m[5][0] == 1
    assert sum(abs(v) for row in m for v in row) == 2


def test_quotient_level3_goldens():
    rep = build_quotient_rep(3)
    assert rep.size == 3
    assert ints(rep.of(H)) == [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert ints(rep.of(y_plus(1))) == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert ints(rep.of(y_minus(1))) == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert all(e.is_zero for e in rep.of(central(1, 1)).entries)


def test_homomorphism_and_kernels():
    for n in (2, 3, 4, 5):
        alg = build_gn(n)
        faithful = check_homomorphism(build_faithful_rep(n, alg), n, alg)
        assert faithful.passed
        assert faithful.data["kernel_dim"] == 0
        quotient = check_homomorphism(build_quotient_rep(n, alg), n, alg)
        assert quotient.passed
        assert quotient.data["kernel_dim"] == triangular(n - 2)
        assert quotient.data["kernel_in_centre"]


def test_homomorphism_reports_broken_images():
    """Doubling the image of x+ breaks its brackets with x- and y1-, whose
    images it does not double, and shifting the image of h by the identity
    gives it a trace."""
    alg = build_gn(3)
    rep = build_faithful_rep(3, alg)
    size = rep.size
    shifted = PolyMatrix(size, size, [
        rep.of(H).at(i, j) + (1 if i == j else 0)
        for i in range(size) for j in range(size)])
    broken = MatrixRep("broken", size, {
        **rep.image, H: shifted,
        X_PLUS: rep.of(X_PLUS).map(lambda e: 2 * e)}, alg)
    report = check_homomorphism(broken, 3, alg)
    assert report.failures == ["commutator mismatch on (xm, xp)",
                               "commutator mismatch on (xp, y1m)",
                               "image of h has trace 4"]
    assert report.data["kernel_dim"] == 0


def test_images_are_traceless():
    rep = build_faithful_rep(4)
    for g in rep.algebra.basis.order:
        m = rep.of(g).constant_entries()
        assert sum(m[i][i] for i in range(rep.size)) == 0


# ----------------------------------------------------------------------
# coadjoint fields


def test_coadjoint_closed_forms():
    alg = build_gn(4)
    fields = {f.source: f for f in build_coadjoint(4, alg)}
    P = alg.basis.poly
    V = alg.basis.var

    h_hat = fields[H]
    assert h_hat.coefficient_of(V(X_PLUS)) == 2 * P(X_PLUS)
    assert h_hat.coefficient_of(V(X_MINUS)) == -2 * P(X_MINUS)
    assert h_hat.coefficient_of(V(y_plus(1))) == P(y_plus(1))
    assert h_hat.coefficient_of(V(y_minus(2))) == -P(y_minus(2))
    assert h_hat.coefficient_of(V(H)).is_zero

    xp_hat = fields[X_PLUS]
    assert xp_hat.coefficient_of(V(X_MINUS)) == P(H)
    assert xp_hat.coefficient_of(V(H)) == -2 * P(X_PLUS)
    assert xp_hat.coefficient_of(V(y_minus(1))) == P(y_plus(1))
    assert xp_hat.coefficient_of(V(y_plus(1))).is_zero

    xm_hat = fields[X_MINUS]
    assert xm_hat.coefficient_of(V(X_PLUS)) == -P(H)
    assert xm_hat.coefficient_of(V(H)) == 2 * P(X_MINUS)
    assert xm_hat.coefficient_of(V(y_plus(2))) == P(y_minus(2))

    y1p_hat = fields[y_plus(1)]
    assert y1p_hat.coefficient_of(V(H)) == -P(y_plus(1))
    assert y1p_hat.coefficient_of(V(X_MINUS)) == -P(y_minus(1))
    assert y1p_hat.coefficient_of(V(y_minus(1))) == P(central(1, 1))
    assert y1p_hat.coefficient_of(V(y_minus(2))) == P(central(1, 2))

    y2m_hat = fields[y_minus(2)]
    assert y2m_hat.coefficient_of(V(H)) == P(y_minus(2))
    assert y2m_hat.coefficient_of(V(X_PLUS)) == -P(y_plus(2))
    assert y2m_hat.coefficient_of(V(y_plus(1))) == -P(central(1, 2))
    assert y2m_hat.coefficient_of(V(y_plus(2))) == -P(central(2, 2))

    for g in alg.basis.centrals:
        assert not fields[g].coeffs


def test_apply_on_generators_is_the_bracket():
    """x^(v) must equal [x, v] for every generator pair; in particular
    applying the raising field to the lowering variable gives +h."""
    alg = build_gn(3)
    fields = {f.source: f for f in build_coadjoint(3, alg)}
    P = alg.basis.poly
    assert fields[X_PLUS].apply(P(X_MINUS)) == P(H)
    assert fields[X_MINUS].apply(P(X_PLUS)) == -P(H)
    for a in alg.basis.order:
        for b in alg.basis.order:
            assert fields[a].apply(P(b)) == alg.constants.of(a, b)


def test_apply_agrees_with_poisson_bracket():
    alg = build_gn(3)
    fields = build_coadjoint(3, alg)
    rng = random.Random(59)
    names = [g.name for g in alg.basis.order]
    for _ in range(10):
        p = random_poly(alg.registry, rng, names, max_terms=3, max_degree=2)
        for f in fields:
            assert f.apply(p) == alg.bracket(alg.basis.poly(f.source), p)


def test_apply_is_a_derivation():
    alg = build_gn(3)
    fields = build_coadjoint(3, alg)
    rng = random.Random(61)
    names = [g.name for g in alg.basis.order]
    for _ in range(8):
        p = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        q = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        for f in fields:
            assert f.apply(p * q) == f.apply(p) * q + p * f.apply(q)


def test_apply_rejects_phase_variables():
    ctx = PhaseContext(2, 1)
    fields = build_coadjoint(2, ctx.algebra)
    with pytest.raises(ValueError, match="foreign variables"):
        fields[0].apply(ctx.q(1))


def test_field_homomorphism_check():
    for n in (3, 4, 5):
        assert check_field_homomorphism(n).passed
