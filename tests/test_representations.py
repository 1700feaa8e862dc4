"""Matrix representations (faithful and quotient), whose images are
integer rows, and the coadjoint vector fields, with frozen image goldens
at small levels.
"""

import random

import pytest

from gnlab import (PhaseContext, Polynomial, build_coadjoint,
                   build_faithful_rep, build_gn, build_quotient_rep,
                   check_field_homomorphism, check_homomorphism, triangular)
from conftest import lie_poisson, random_poly
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.representations import MatrixRep


def test_faithful_level2_goldens():
    rep = build_faithful_rep(build_gn(2))
    assert rep.size == 2
    assert rep.of(H) == [[1, 0], [0, -1]]
    assert rep.of(X_PLUS) == [[0, 1], [0, 0]]
    assert rep.of(X_MINUS) == [[0, 0], [1, 0]]


def test_faithful_level3_goldens():
    rep = build_faithful_rep(build_gn(3))
    assert rep.size == 4
    assert rep.of(H) == [[0, 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, -1, 0], [0, 0, 0, 0]]
    assert rep.of(y_plus(1)) == [[0, 0, 0, 0], [1, 0, 0, 0],
                                  [0, 0, 0, 0], [0, 0, 1, 0]]
    assert rep.of(y_minus(1)) == [[0, 0, 0, 0], [0, 0, 0, 0],
                                   [1, 0, 0, 0], [0, -1, 0, 0]]
    assert rep.of(central(1, 1)) == [[0, 0, 0, 0], [0, 0, 0, 0],
                                      [0, 0, 0, 0], [2, 0, 0, 0]]


def test_faithful_level4_offdiagonal_central():
    rep = build_faithful_rep(build_gn(4))
    m = rep.of(central(1, 2))
    # z_{1,2} sits on the symmetric pair of slots (5,2) and (6,1), 1-based
    assert m[4][1] == 1 and m[5][0] == 1
    assert sum(abs(v) for row in m for v in row) == 2


def test_quotient_level3_goldens():
    rep = build_quotient_rep(build_gn(3))
    assert rep.size == 3
    assert rep.of(H) == [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert rep.of(y_plus(1)) == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert rep.of(y_minus(1)) == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert rep.of(central(1, 1)) == [[0, 0, 0]] * 3


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_is_the_top_left_block_of_the_faithful_rep(n):
    """No faithful image has a nonzero column past n, so the span W of
    slots n+1..2n-2 goes to 0 and the quotient V/W is the top-left n x n
    block of every faithful image."""
    alg = build_gn(n)
    faithful, quotient = build_faithful_rep(alg), build_quotient_rep(alg)
    for g in alg.basis.order:
        m = faithful.of(g)
        assert all(v == 0 for row in m for v in row[n:]), g.name
        assert quotient.of(g) == [row[:n] for row in m[:n]], g.name


def test_homomorphism_and_kernels():
    for n in (2, 3, 4, 5):
        alg = build_gn(n)
        faithful = check_homomorphism(build_faithful_rep(alg))
        assert faithful.passed
        assert faithful.data["kernel_dim"] == 0
        quotient = check_homomorphism(build_quotient_rep(alg))
        assert quotient.passed
        assert quotient.data["kernel_dim"] == triangular(n - 2)
        assert quotient.data["kernel_in_centre"]


def test_homomorphism_reports_broken_images():
    """Doubling the image of x+ breaks its brackets with x- and y1-, whose
    images it does not double, and shifting the image of h by the identity
    gives it a trace."""
    alg = build_gn(3)
    rep = build_faithful_rep(alg)
    size = rep.size
    shifted = [[v + (i == j) for j, v in enumerate(row)]
               for i, row in enumerate(rep.of(H))]
    broken = MatrixRep("broken", size, {
        **rep.image, H: shifted,
        X_PLUS: [[2 * v for v in row] for row in rep.of(X_PLUS)]}, alg, ())
    report = check_homomorphism(broken)
    assert report.failures == ["commutator mismatch on (xm, xp)",
                               "commutator mismatch on (xp, y1m)",
                               "image of h has trace 4"]
    assert report.data["kernel_dim"] == 0


def claiming(rep: MatrixRep, kills) -> MatrixRep:
    """The images of `rep`, claiming the span of `kills` as their kernel."""
    return MatrixRep(rep.name, rep.size, rep.image, rep.algebra, kills)


def test_homomorphism_fails_when_the_kernel_is_not_the_claimed_one():
    """The quotient images in a representation that claims no kernel, the
    faithful images claiming the centre, and the quotient images claiming
    h in place of one central generator each fail on the kernel alone."""
    for n in (3, 4):
        alg = build_gn(n)
        faithful = build_faithful_rep(alg)
        quotient = build_quotient_rep(alg)
        centrals = alg.basis.centrals
        t = triangular(n - 2)
        swapped = (H, *centrals[1:])
        cases = [
            (claiming(quotient, ()), t,
             [f"kernel has dimension {t}, not 0",
              "kernel leaves the span of {}"]),
            (claiming(faithful, centrals), 0,
             [f"kernel has dimension 0, not {t}"]),
            (claiming(quotient, swapped), t,
             ["kernel leaves the span of {"
              + ", ".join(g.name for g in swapped) + "}"]),
        ]
        for rep, kernel_dim, failures in cases:
            report = check_homomorphism(rep)
            assert report.failures == failures
            assert report.data["kernel_dim"] == kernel_dim


def test_images_are_traceless():
    rep = build_faithful_rep(build_gn(4))
    for g in rep.algebra.basis.order:
        m = rep.of(g)
        assert all(type(v) is int for row in m for v in row)
        assert sum(m[i][i] for i in range(rep.size)) == 0


# ----------------------------------------------------------------------
# coadjoint fields


def test_coadjoint_closed_forms():
    alg = build_gn(4)
    fields = {f.source: f for f in build_coadjoint(alg)}
    P = alg.basis.poly
    V = alg.basis.var

    def coefficient(field, v):
        return Polynomial(alg.registry, field.terms.get(v.index, {}))

    h_hat = fields[H]
    assert coefficient(h_hat, V(X_PLUS)) == 2 * P(X_PLUS)
    assert coefficient(h_hat, V(X_MINUS)) == -2 * P(X_MINUS)
    assert coefficient(h_hat, V(y_plus(1))) == P(y_plus(1))
    assert coefficient(h_hat, V(y_minus(2))) == -P(y_minus(2))
    assert not coefficient(h_hat, V(H))

    xp_hat = fields[X_PLUS]
    assert coefficient(xp_hat, V(X_MINUS)) == P(H)
    assert coefficient(xp_hat, V(H)) == -2 * P(X_PLUS)
    assert coefficient(xp_hat, V(y_minus(1))) == P(y_plus(1))
    assert not coefficient(xp_hat, V(y_plus(1)))

    xm_hat = fields[X_MINUS]
    assert coefficient(xm_hat, V(X_PLUS)) == -P(H)
    assert coefficient(xm_hat, V(H)) == 2 * P(X_MINUS)
    assert coefficient(xm_hat, V(y_plus(2))) == P(y_minus(2))

    y1p_hat = fields[y_plus(1)]
    assert coefficient(y1p_hat, V(H)) == -P(y_plus(1))
    assert coefficient(y1p_hat, V(X_MINUS)) == -P(y_minus(1))
    assert coefficient(y1p_hat, V(y_minus(1))) == P(central(1, 1))
    assert coefficient(y1p_hat, V(y_minus(2))) == P(central(1, 2))

    y2m_hat = fields[y_minus(2)]
    assert coefficient(y2m_hat, V(H)) == P(y_minus(2))
    assert coefficient(y2m_hat, V(X_PLUS)) == -P(y_plus(2))
    assert coefficient(y2m_hat, V(y_plus(1))) == -P(central(1, 2))
    assert coefficient(y2m_hat, V(y_plus(2))) == -P(central(2, 2))

    for g in alg.basis.centrals:
        assert not fields[g].terms
    # the coefficients are linear, so a nonzero field has degree 1
    assert all(f.degree == (f.source not in alg.basis.centrals)
               for f in fields.values())


def test_apply_on_generators_is_the_bracket():
    """x^(v) must equal [x, v] for every generator pair; in particular
    applying the raising field to the lowering variable gives +h."""
    alg = build_gn(3)
    fields = {f.source: f for f in build_coadjoint(alg)}
    P = alg.basis.poly
    assert fields[X_PLUS].apply(P(X_MINUS)) == P(H)
    assert fields[X_MINUS].apply(P(X_PLUS)) == -P(H)
    for a in alg.basis.order:
        for b in alg.basis.order:
            assert fields[a].apply(P(b)) == alg.constants.of(a, b)


def test_apply_agrees_with_poisson_bracket():
    alg = build_gn(3)
    fields = build_coadjoint(alg)
    rng = random.Random(59)
    names = [g.name for g in alg.basis.order]
    for _ in range(10):
        p = random_poly(alg.registry, rng, names, max_terms=3, max_degree=2)
        for f in fields:
            assert f.apply(p) == lie_poisson(alg, alg.basis.poly(f.source), p)


def test_apply_is_a_derivation():
    alg = build_gn(3)
    fields = build_coadjoint(alg)
    rng = random.Random(61)
    names = [g.name for g in alg.basis.order]
    for _ in range(8):
        p = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        q = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        for f in fields:
            assert f.apply(p * q) == f.apply(p) * q + p * f.apply(q)


def test_apply_rejects_phase_variables():
    ctx = PhaseContext(2, 1)
    fields = build_coadjoint(ctx.algebra)
    with pytest.raises(ValueError, match="foreign variables"):
        fields[0].apply(ctx.q(1))


def test_field_homomorphism_check():
    for n in (3, 4, 5):
        assert check_field_homomorphism(build_gn(n)).passed
