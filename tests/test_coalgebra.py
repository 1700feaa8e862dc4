"""Coproducts, canonical realisations, the two integral routes, involution,
vanishing thresholds, and independence counts.

The library realises windows directly and never builds a tensor space, so
the primitive coproduct lives here.  Coassociativity is checked by mapping
the two-site coproduct into the three-site space along both legs and
comparing exactly.
"""

import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from gnlab import (BudgetExceeded, GnAlgebra, Generator, PhaseContext,
                   Polynomial, RegistryMismatch, VarId, VarRegistry,
                   build_gn, building_block, canonical_bracket, casimir,
                   check_independence, check_involution,
                   check_realization_homomorphism, check_route_equivalence,
                   check_vanishing, det, integral_family, integral_set,
                   window)
from conftest import (cofactor_det, evaluate, harmonic_hamiltonian,
                      random_poly)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.coalgebra import check_integral_budget


def realize(ctx, g, side="left", m=None):
    """The image of one generator over a site window."""
    return ctx.realization_images(side, m)[ctx.algebra.basis.var(g)]


def test_window_arithmetic():
    assert window("left", 2, 5) == (1, 2)
    assert window("left", 5, 5) == (1, 5)
    assert window("right", 2, 5) == (4, 5)
    assert window("right", 5, 5) == (1, 5)
    with pytest.raises(ValueError):
        window("left", 6, 5)
    with pytest.raises(ValueError):
        window("left", 0, 5)
    with pytest.raises(ValueError):
        window("middle", 2, 5)


def test_context_parameter_validation():
    with pytest.raises(ValueError, match="missing parameter row"):
        PhaseContext(3, 4)
    with pytest.raises(ValueError, match="length"):
        PhaseContext(3, 4, {1: [1, 2]})
    ctx = PhaseContext(3, 2, {1: [Fraction(1, 2), 3]})
    assert ctx.alpha(1, 1) == Fraction(1, 2)
    assert ctx.alpha(1, 2) == 3


def test_phase_registry_holds_q_and_p_only():
    ctx = PhaseContext(3, 4, {1: [1, 2, 3, 4]})
    assert [v.name for v in ctx.registry.var_ids] == \
        ["q1", "p1", "q2", "p2", "q3", "p3", "q4", "p4"]
    assert ctx.state_vars() == tuple(ctx.registry.var(f"{x}{k}")
                                     for x in "qp" for k in range(1, 5))


def test_realize_poly_rejects_another_levels_generators():
    # z1_1 of level 3 sits at the index of y2m in level 4
    with pytest.raises(RegistryMismatch):
        PhaseContext.seeded(4, 5).realize_poly(
            build_gn(3).basis.poly(central(1, 1)))


def test_seeded_context_is_deterministic():
    a = PhaseContext.seeded(4, 5, alpha_seed=9)
    b = PhaseContext.seeded(4, 5, alpha_seed=9)
    assert a.alpha_rows == b.alpha_rows
    for row in a.alpha_rows.values():
        assert all(v != 0 and abs(v) <= 9 for v in row)


# ----------------------------------------------------------------------
# coproduct


class TensorSpace:
    """m-fold tensor registry with per-site copies name.k of each generator
    variable, site-major order."""

    def __init__(self, algebra: GnAlgebra, sites: int):
        self.algebra = algebra
        self.sites = sites
        self.registry = VarRegistry()
        for k in range(1, sites + 1):
            for g in algebra.basis.order:
                self.registry.add(f"{g.name}.{k}")

    def var(self, g: Generator, site: int) -> VarId:
        return self.registry.var(f"{g.name}.{site}")

    def site_poly(self, g: Generator, site: int) -> Polynomial:
        return self.registry.poly(self.var(g, site))

    def coproduct(self, x: Polynomial) -> Polynomial:
        """Primitive coproduct, extended multiplicatively: substitute each
        generator variable by the sum of its site copies."""
        images = {
            self.algebra.basis.var(g): sum(
                (self.site_poly(g, k) for k in range(1, self.sites + 1)),
                self.registry.zero())
            for g in self.algebra.basis.order}
        return x.substitute(images)


def test_coproduct_is_primitive_on_generators():
    alg = build_gn(3)
    space = TensorSpace(alg, 2)
    for g in alg.basis.order:
        got = space.coproduct(alg.basis.poly(g))
        assert got == space.site_poly(g, 1) + space.site_poly(g, 2)


def test_coproduct_of_level2_invariant():
    alg = build_gn(2)
    space = TensorSpace(alg, 2)
    c2 = casimir(alg).polynomial
    sp = space.site_poly
    one_site = lambda k: sp(H, k) ** 2 + 4 * sp(X_PLUS, k) * sp(X_MINUS, k)
    cross = (2 * sp(H, 1) * sp(H, 2)
             + 4 * sp(X_PLUS, 1) * sp(X_MINUS, 2)
             + 4 * sp(X_MINUS, 1) * sp(X_PLUS, 2))
    assert space.coproduct(c2) == one_site(1) + one_site(2) + cross


def test_coproduct_is_multiplicative():
    alg = build_gn(3)
    space = TensorSpace(alg, 2)
    rng = random.Random(67)
    names = [g.name for g in alg.basis.order]
    for _ in range(10):
        f = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        g = random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
        assert space.coproduct(f * g) == space.coproduct(f) * space.coproduct(g)


def test_coproduct_is_coassociative():
    alg = build_gn(3)
    two = TensorSpace(alg, 2)
    three = TensorSpace(alg, 3)
    # expand the first factor over sites {1,2}, or the second over {2,3}
    first_leg = {}
    second_leg = {}
    for g in alg.basis.order:
        first_leg[two.var(g, 1)] = three.site_poly(g, 1) + three.site_poly(g, 2)
        first_leg[two.var(g, 2)] = three.site_poly(g, 3)
        second_leg[two.var(g, 1)] = three.site_poly(g, 1)
        second_leg[two.var(g, 2)] = three.site_poly(g, 2) + three.site_poly(g, 3)
    rng = random.Random(71)
    names = [g.name for g in alg.basis.order]
    probes = [alg.basis.poly(g) for g in alg.basis.order]
    probes.append(casimir(alg).polynomial)
    probes += [random_poly(alg.registry, rng, names, max_terms=2, max_degree=2)
               for _ in range(5)]
    for x in probes:
        d = two.coproduct(x)
        assert d.substitute(first_leg) == d.substitute(second_leg)


# ----------------------------------------------------------------------
# realisation


def test_realize_goldens():
    ctx = PhaseContext(3, 2, {1: [2, -3]})
    q1, q2 = ctx.q(1), ctx.q(2)
    p1, p2 = ctx.p(1), ctx.p(2)
    assert realize(ctx, H) == q1 * p1 + q2 * p2
    assert realize(ctx, X_PLUS) == (p1 ** 2 + p2 ** 2) * Fraction(1, 2)
    assert realize(ctx, X_MINUS) == -(q1 ** 2 + q2 ** 2) * Fraction(1, 2)
    assert realize(ctx, y_plus(1)) == 2 * p1 - 3 * p2
    assert realize(ctx, y_minus(1)) == -(2 * q1 - 3 * q2)
    assert realize(ctx, central(1, 1)) == ctx.registry.const(13)


def test_site_images_golden():
    """The one symbolic site: q, p and the parameters as symbols."""
    site = PhaseContext.seeded(4, 2).site
    assert [v.name for v in site.registry.var_ids] == ["q", "p", "a1", "a2"]
    assert site.pairs == (tuple(site.registry.var_ids[:2]),)
    P = site.registry.poly
    q, p, a1, a2 = P("q"), P("p"), P("a1"), P("a2")
    alg = build_gn(4)
    want = {H: q * p, X_MINUS: -q * q * Fraction(1, 2),
            X_PLUS: p * p * Fraction(1, 2), y_minus(2): -a2 * q,
            y_plus(1): a1 * p, central(1, 2): a1 * a2, central(2, 2): a2 * a2}
    for g, image in want.items():
        assert site.images[alg.basis.var(g)] == image, g.name
    assert len(site.images) == alg.basis.dim


def test_realize_windows():
    ctx = PhaseContext.seeded(2, 4)
    assert window("left", 2, ctx.N) == (1, 2)
    assert realize(ctx, X_PLUS, "left", 2) == \
        (ctx.p(1) ** 2 + ctx.p(2) ** 2) * Fraction(1, 2)
    assert window("right", 2, ctx.N) == (3, 4)
    assert realize(ctx, X_PLUS, "right", 2) == \
        (ctx.p(3) ** 2 + ctx.p(4) ** 2) * Fraction(1, 2)


def test_realize_poly_of_constants():
    ctx = PhaseContext.seeded(3, 3)
    reg = ctx.algebra.registry
    for value in (Fraction(-7, 3), Fraction(5), Fraction(0)):
        got = ctx.realize_poly(reg.const(value), "right", 2)
        assert got.registry is ctx.registry
        assert got == ctx.registry.const(value)
    assert not ctx.realize_poly(reg.zero())
    # a constant of the phase registry is not a polynomial in generators
    with pytest.raises(RegistryMismatch):
        ctx.realize_poly(ctx.registry.const(Fraction(5)))


def test_canonical_bracket_basics():
    ctx = PhaseContext(2, 3)
    assert canonical_bracket(ctx, ctx.q(1), ctx.p(1)) == ctx.registry.one()
    assert not canonical_bracket(ctx, ctx.q(1), ctx.q(2))
    assert not canonical_bracket(ctx, ctx.p(1), ctx.p(2))
    L12 = building_block(ctx, (1, 2))
    L13 = building_block(ctx, (1, 3))
    L23 = building_block(ctx, (2, 3))
    assert canonical_bracket(ctx, L12, L13) == L23
    with pytest.raises(ValueError, match="non-phase"):
        canonical_bracket(ctx, ctx.algebra.basis.poly(H), ctx.q(1))


def textbook_bracket(ctx, f, g):
    """sum_k df/dq_k dg/dp_k - dg/dq_k df/dp_k with polynomial products."""
    total = ctx.registry.zero()
    for k in range(1, ctx.N + 1):
        q, p = ctx.qvar(k), ctx.pvar(k)
        total = (total + f.partial(q) * g.partial(p)
                 - g.partial(q) * f.partial(p))
    return total


@pytest.mark.parametrize("n,N", [(3, 5), (4, 6)])
def test_canonical_bracket_matches_textbook_definition(n, N):
    rng = random.Random(f"bracket:{n}:{N}")
    rows = {i: [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 4)) for _ in range(N)]
            for i in range(1, n - 1)}
    ctx = PhaseContext(n, N, rows)
    q, p = ctx.q, ctx.p
    family = list(integral_family(ctx).values())
    others = [realize(ctx, g, side, m) for g in ctx.algebra.basis.order
              for side, m in (("left", N), ("right", n - 1))]
    others += [Fraction(2, 3) * q(1) * p(2) ** 2 - q(N) ** 3,
               Fraction(-1, 5) * p(1) * p(N) + 7 * q(2) * q(1) * p(1),
               ctx.registry.const(Fraction(4, 7))]
    nonzero = 0
    for f, g in [(family[0], family[-1]), *product(family[:2], others),
                 *product(others[-3:], others)]:
        got = canonical_bracket(ctx, f, g)
        assert got == textbook_bracket(ctx, f, g)
        assert canonical_bracket(ctx, g, f) == -got
        nonzero += bool(got)
    assert nonzero > 0


def test_canonical_bracket_above_the_degree_limit_raises():
    ctx = PhaseContext(2, 2)
    q1, p1 = ctx.q(1), ctx.p(1)
    with pytest.raises(BudgetExceeded, match="above the limit 255"):
        canonical_bracket(ctx, q1 ** 200, p1 ** 100)
    # degree 199 + 56 = 255 is the limit itself
    assert canonical_bracket(ctx, q1 ** 200, p1 ** 57) == \
        200 * 57 * q1 ** 199 * p1 ** 56


def test_realization_homomorphism():
    for (n, N) in ((2, 3), (3, 4), (4, 5)):
        assert check_realization_homomorphism(PhaseContext.seeded(n, N)).passed


def test_harmonic_hamiltonian_form():
    ctx = PhaseContext.seeded(2, 2)
    want = (ctx.p(1) ** 2 + ctx.p(2) ** 2) * Fraction(1, 2) \
        + (ctx.q(1) ** 2 + ctx.q(2) ** 2) * Fraction(1, 2)
    assert harmonic_hamiltonian(ctx) == want


# ----------------------------------------------------------------------
# building blocks and integral routes


def test_building_block_level2_is_angular():
    ctx = PhaseContext(2, 4)
    for (i, j) in ((1, 2), (2, 4), (1, 3)):
        want = ctx.q(i) * ctx.p(j) - ctx.q(j) * ctx.p(i)
        assert building_block(ctx, (i, j)) == want
    with pytest.raises(ValueError):
        building_block(ctx, (2, 1))
    with pytest.raises(ValueError):
        building_block(ctx, (1, 5))


def building_block_expansion(ctx: PhaseContext, indices) -> Polynomial:
    """The paper's angular-momentum form of a building block: the signed
    sum of parameter minors times the elementary blocks
    L_ab = q_a p_b - q_b p_a, expanded along the q and p rows."""
    idx = tuple(indices)
    n = ctx.n
    reg = ctx.registry
    total = reg.zero()
    for a, b in combinations(range(n), 2):
        cols = [idx[c] for c in range(n) if c not in (a, b)]
        minor = det([[reg.const(ctx.alpha(i, k)) for k in cols]
                     for i in range(1, n - 1)]) if n > 2 else reg.one()
        sign = (-1) ** (a + b + 1)  # (a+1) + (b+1) - 1 with 1-based slots
        block = ctx.q(idx[a]) * ctx.p(idx[b]) - ctx.q(idx[b]) * ctx.p(idx[a])
        total = total + sign * minor * block
    return total


def test_building_block_expansion_matches_determinant():
    for n, N in ((2, 4), (3, 4), (4, 5)):
        ctx = PhaseContext.seeded(n, N, alpha_seed=5)
        for combo in combinations(range(1, N + 1), n):
            assert building_block_expansion(ctx, combo) == \
                building_block(ctx, combo)


def test_vanishing_fails_on_a_zero_threshold_integral():
    """The threshold integral is zero where the parameter rows lose rank
    on the window: `check_vanishing` reads that from the rows alone, and
    the built integrals are its oracle."""
    for rows, zero_sides in (
            # alpha^(2) = 2 alpha^(1): rank 1 on both threshold windows
            ({1: [1, 2, 0, 0, 3], 2: [2, 4, 0, 0, 6]}, {"left", "right"}),
            # rank 1 on sites 1..4 alone; sites 2..5 have rank 2
            ({1: [1, 1, 0, 0, 0], 2: [2, 2, 0, 0, 1]}, {"left"})):
        ctx = PhaseContext(4, 5, rows)
        rep = check_vanishing(ctx)
        assert rep.failures == ["vanishes at the threshold window m = n"]
        assert rep.data["threshold_nonzero"] is False
        assert "integrals" not in vars(ctx)
        for side in ("left", "right"):
            assert (not integral_set(ctx, side)[4]) == (side in zero_sides)


# ----------------------------------------------------------------------
# the routes the certificates replaced, kept here as oracles

coalgebra_module = importlib.import_module("gnlab.coalgebra")
ORACLE_SIZES = [(3, 5), (4, 6), (6, 6)]


def integrals_via_coproduct(ctx, side, m):
    """Window-m conserved quantity by substitution: C_n with every
    generator replaced by its window realisation."""
    return ctx.casimir.polynomial.substitute(ctx.realization_images(side, m))


def window_poisson_failures(ctx, side, m):
    """The generator pairs, as "(a, b)", on which the window map phi_m is
    not a Poisson map, bracketed over the window's own images."""
    alg = ctx.algebra
    return [f"({a.name}, {b.name})"
            for a, b in combinations(alg.basis.order, 2)
            if canonical_bracket(ctx, realize(ctx, a, side, m),
                                 realize(ctx, b, side, m))
            != ctx.realize_poly(alg.constants.of(a, b), side, m)]


def window_is_gram(ctx, side, m):
    """Whether M realised over window m is A A^T entry by entry, the
    realised entries read from the window's own images and A built from
    the parameter rows and the window's q and p."""
    n, reg, matrix = ctx.n, ctx.registry, ctx.casimir.matrix
    a, b = window(side, m, ctx.N)
    A = coalgebra_module._window_rows(ctx, range(a, b + 1))
    return all(ctx.realize_poly(matrix[i][j], side, m) == sum(
        (x * y for x, y in zip(A[i], A[j])), reg.zero())
        for i in range(n) for j in range(n))


def all_windows(ctx):
    return [(side, m) for side in ("left", "right")
            for m in range(1, ctx.N + 1)]


def _counting_substitution(monkeypatch):
    """Record the degree of each polynomial of degree above one that is
    substituted.  The entries of the bordered matrix are linear, so a
    record means that C_n, or some other product, was substituted."""
    real = Polynomial.substitute
    calls = []

    def counting(f, images):
        if f.total_degree() > 1:
            calls.append(f.total_degree())
        return real(f, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    return calls


# fractional parameters: A A^T then has non-integral constant entries
RATIONAL_ROWS = {1: ["1/2", -3, "2/3", 5, "-1/7"], 2: [4, "5/6", -1, "3/4", 2]}


def sum_of_squares(ctx, side, m):
    """Minus the sum of the squared building blocks of every n-subset of
    the window's sites, summed afresh for each window."""
    a, b = window(side, m, ctx.N)
    return -sum((building_block(ctx, c) ** 2
                 for c in combinations(range(a, b + 1), ctx.n)),
                ctx.registry.zero())


@pytest.mark.parametrize("n,N,rows", [(2, 2, None), (2, 6, None),
                                      (3, 6, None), (4, 7, None),
                                      (5, 8, None), (4, 5, RATIONAL_ROWS)])
def test_running_sums_match_each_window_summed_afresh(n, N, rows):
    ctx = PhaseContext(n, N, rows) if rows else PhaseContext.seeded(n, N)
    for side in ("left", "right"):
        members = integral_set(ctx, side)
        assert list(members) == list(range(n, N + 1))
        for m, p in members.items():
            assert p.terms == sum_of_squares(ctx, side, m).terms, (side, m)


@pytest.mark.parametrize("n,N,rows", [(n, N, None) for n, N in ORACLE_SIZES]
                         + [(4, 5, RATIONAL_ROWS)])
def test_vanishing_certificate_matches_the_substitution(monkeypatch, n, N,
                                                        rows):
    """`check_vanishing` certifies each window below the threshold by
    comparing the realised M with A A^T, substituting nothing; C_n with the
    window images substituted vanishes there too."""
    ctx = PhaseContext(n, N, rows) if rows else PhaseContext.seeded(n, N)
    calls = _counting_substitution(monkeypatch)
    assert check_vanishing(ctx).passed
    assert calls == []
    for side in ("left", "right"):
        for m in range(1, n):
            assert not integrals_via_coproduct(ctx, side, m)


def test_route_equivalence_small():
    for (n, N) in ((2, 3), (3, 4)):
        ctx = PhaseContext.seeded(n, N)
        assert check_route_equivalence(ctx).passed
        for m in range(n, N + 1):
            assert integrals_via_coproduct(ctx, "left", m) == \
                sum_of_squares(ctx, "left", m)


def test_full_window_integral_is_the_realized_invariant():
    ctx = PhaseContext.seeded(3, 4)
    full = integrals_via_coproduct(ctx, "left", ctx.N)
    assert full == ctx.realize_poly(ctx.casimir.polynomial)
    assert full == integrals_via_coproduct(ctx, "right", ctx.N)


def test_vanishing_below_threshold():
    ctx = PhaseContext.seeded(3, 5)
    rep = check_vanishing(ctx)
    assert rep.passed
    assert not integrals_via_coproduct(ctx, "left", 2)
    assert integrals_via_coproduct(ctx, "left", 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vanishing_threshold_matches_the_substitution(n):
    """`check_vanishing` reads the threshold window from the rank of the
    parameter rows; C_n with the window images substituted is its
    oracle."""
    ctx = PhaseContext.seeded(n, n)
    rep = check_vanishing(ctx)
    assert rep.passed and rep.data["threshold_nonzero"] is True
    for side in ("left", "right"):
        assert integrals_via_coproduct(ctx, side, n)


@pytest.mark.parametrize("n,N,rows", [(2, 3, None)]
                         + [(n, N, None) for n, N in ORACLE_SIZES]
                         + [(4, 5, RATIONAL_ROWS)])
def test_integral_set_matches_coproduct_route(n, N, rows):
    ctx = PhaseContext(n, N, rows) if rows else PhaseContext.seeded(n, N)
    for side in ("left", "right"):
        members = integral_set(ctx, side)
        assert list(members) == list(range(n, N + 1))
        for m, p in members.items():
            assert p == integrals_via_coproduct(ctx, side, m), (side, m)


def test_level7_routes_agree_and_vanish_below_threshold():
    ctx = PhaseContext.seeded(7, 7)
    for side in ("left", "right"):
        full = integrals_via_coproduct(ctx, side, 7)
        assert full
        assert full == sum_of_squares(ctx, side, 7)
        assert not integrals_via_coproduct(ctx, side, 6)


def test_route_equivalence_substitutes_nothing(monkeypatch):
    """The certificate realises only the linear entries of M and never
    builds the integrals, yet counts every window m = n..N of both
    sides."""
    ctx = PhaseContext.seeded(4, 6)
    calls = _counting_substitution(monkeypatch)
    rep = check_route_equivalence(ctx)
    assert rep.passed and rep.data["windows"] == 2 * (6 - 4 + 1)
    assert calls == []
    assert "integrals" not in vars(ctx)


def site_param_raised(ctx, g, i):
    """Set the site image of `g` to itself with the parameter a_i raised
    by one."""
    site = ctx.site
    v = ctx.algebra.basis.var(g)
    P = site.registry.poly
    site.images[v] = site.images[v].substitute(
        {x: P(x) + 1 if x.name == f"a{i}" else P(x)
         for x in site.registry.var_ids})


@pytest.mark.parametrize("g,pairs", [
    (y_minus(2), ["(xm, y2p)", "(xp, y2m)", "(y1p, y2m)", "(y2m, y2p)"]),
    (y_plus(2), ["(xm, y2p)", "(xp, y2m)", "(y1m, y2p)", "(y2m, y2p)"]),
    (central(1, 2), ["(y1m, y2p)", "(y1p, y2m)"]),
    (central(2, 2), ["(y2m, y2p)"])], ids=["y2m", "y2p", "z1_2", "z2_2"])
def test_route_equivalence_fails_on_one_changed_site_parameter(g, pairs):
    """a_2 raised by one in the site image of one generator: M no longer
    realises to a a^T on the site, so every window m = n..N of both sides
    fails route equivalence, and every window below the threshold fails
    vanishing.  The site map also stops being a Poisson map, on the pairs
    whose bracket meets the changed image once (for a central image, the
    pairs whose bracket is it)."""
    ctx = PhaseContext.seeded(4, 6)
    site_param_raised(ctx, g, 2)
    assert check_route_equivalence(ctx).failures == [
        f"routes differ at side={side}, m={m}"
        for side in ("left", "right") for m in (4, 5, 6)]
    assert check_vanishing(ctx).failures == [
        f"realised M is not A A^T: side={side}, m={m}"
        for side in ("left", "right") for m in (1, 2, 3)]
    assert check_realization_homomorphism(ctx).failures == [
        f"realisation breaks on {pair}" for pair in pairs]
    assert not ctx._images


@pytest.mark.parametrize("n,N", ORACLE_SIZES)
def test_involution_matches_the_all_generator_brackets(n, N):
    """`check_involution` counts dim g_n brackets for each integral and
    computes none; every realised generator commutes with every
    integral."""
    ctx = PhaseContext.seeded(n, N)
    rep = check_involution(ctx)
    assert rep.passed
    members = [p for side in ("left", "right")
               for p in integral_set(ctx, side).values()]
    assert rep.data["generator_brackets"] == \
        len(members) * ctx.algebra.basis.dim
    for g in ctx.algebra.basis.order:
        d = realize(ctx, g)
        for p in members:
            assert not canonical_bracket(ctx, p, d), g.name


@pytest.mark.parametrize("n,N", [(2, 4), (3, 5), (4, 7), (6, 8)])
def test_involution_pairs_match_the_direct_brackets(n, N):
    """`check_involution` certifies the within-side pairs it counts without
    bracketing two integrals; bracketed directly, every pair commutes."""
    ctx = PhaseContext.seeded(n, N)
    rep = check_involution(ctx)
    assert rep.passed
    pairs = 0
    for side in ("left", "right"):
        members = integral_set(ctx, side)
        for m, k in combinations(members, 2):
            pairs += 1
            assert not canonical_bracket(ctx, members[m], members[k]), \
                (side, m, k)
    assert rep.data["pairs"] == pairs


def test_involution_brackets_no_two_integrals(monkeypatch):
    """`check_involution` brackets the site images of the generators
    (degree at most 2, over q, p and the a_i) alone: each generator pair
    once per context, however many proper windows there are, none with
    N = n, and it builds no integral and no window image."""
    real = coalgebra_module.canonical_bracket
    degrees = []

    def recording(space, f, g):
        assert space.registry is f.registry is g.registry is ctx.site.registry
        degrees.append((f.total_degree(), g.total_degree()))
        return real(space, f, g)

    monkeypatch.setattr(coalgebra_module, "canonical_bracket", recording)
    for n, N, brackets in ((4, 7, 45), (4, 4, 0)):
        degrees.clear()
        ctx = PhaseContext.seeded(n, N)
        assert check_involution(ctx).passed
        assert check_involution(ctx).passed
        assert len(degrees) == brackets
        assert all(max(pair) <= 2 for pair in degrees)
        assert "integrals" not in vars(ctx)
        assert not ctx._images


def test_involution_fails_on_a_site_map_that_is_not_poisson():
    """y_{1,+} -> 2 a_1 p on the site breaks the site map on every pair
    whose bracket meets y_{1,+} once: `realization` names those pairs, and
    `involution` names them on every proper window of both sides."""
    ctx = PhaseContext.seeded(4, 6)
    site = ctx.site
    site.images[ctx.algebra.basis.var(y_plus(1))] = \
        2 * site.registry.poly("a1") * site.registry.poly("p")
    pairs = ("(xm, y1p)", "(xp, y1m)", "(y1m, y1p)", "(y1p, y2m)")
    assert check_realization_homomorphism(ctx).failures == [
        f"realisation breaks on {pair}" for pair in pairs]
    assert check_involution(ctx).failures == [
        f"window map breaks on {pair}: side={side}, m={m}"
        for side in ("left", "right") for m in (4, 5) for pair in pairs]


@pytest.mark.parametrize("side,m", [("left", 4), ("right", 5)])
def test_involution_fails_on_a_window_map_that_is_not_poisson(side, m):
    """y_{1,+} -> 2 a_1 p on the site breaks the proper window map phi_m
    built from it: bracketed over the window's own images, phi_m fails on
    every pair whose bracket meets y_{1,+} once, and `involution` names
    exactly those pairs for that window."""
    ctx = PhaseContext.seeded(4, 6)
    site = ctx.site
    site.images[ctx.algebra.basis.var(y_plus(1))] = \
        2 * site.registry.poly("a1") * site.registry.poly("p")
    pairs = ["(xm, y1p)", "(xp, y1m)", "(y1m, y1p)", "(y1p, y2m)"]
    assert window_poisson_failures(ctx, side, m) == pairs
    suffix = f": side={side}, m={m}"
    assert [f for f in check_involution(ctx).failures
            if f.endswith(suffix)] == [
        f"window map breaks on {pair}{suffix}" for pair in pairs]


@pytest.mark.parametrize("g", [H, X_PLUS, y_minus(2), central(1, 2)])
def test_vanishing_fails_on_a_perturbed_window_image(g):
    """The site image of g, an entry of M, gains a term q: every window
    image of g gains the sum of its q_k, so every window below the
    threshold fails, and so does every window of route equivalence."""
    ctx = PhaseContext.seeded(4, 6)
    site = ctx.site
    v = ctx.algebra.basis.var(g)
    site.images[v] = site.images[v] + site.registry.poly("q")
    assert check_vanishing(ctx).failures == [
        f"realised M is not A A^T: side={side}, m={m}"
        for side in ("left", "right") for m in (1, 2, 3)]
    assert check_route_equivalence(ctx).failures == [
        f"routes differ at side={side}, m={m}"
        for side in ("left", "right") for m in (4, 5, 6)]


@pytest.mark.parametrize("n,N", ORACLE_SIZES)
def test_site_verdicts_match_the_window_oracles(n, N):
    """The two site verdicts against the per-window oracles, which bracket
    and compare each window's own images: both pass on every window of
    both sides.  After a mutation of the site images, made before any
    window image is built, both fail on every window: y_{1,+} -> 2 a_1 p,
    and z_{1,1} -> a_1^2 + 1, a constant that no window bracket
    differentiates.  A window's parameters can pass a pair by accident
    (a sum of parameter products that vanishes), so each window fails on
    some of the site's pairs, and the windows together on all of them."""
    ctx = PhaseContext.seeded(n, N)
    assert ctx.site_poisson_failures == () and ctx.site_is_gram
    for side, m in all_windows(ctx):
        assert window_poisson_failures(ctx, side, m) == [], (side, m)
        assert window_is_gram(ctx, side, m), (side, m)
    for g, image in ((y_plus(1), lambda P: 2 * P("a1") * P("p")),
                     (central(1, 1), lambda P: P("a1") ** 2 + 1)):
        broken = PhaseContext.seeded(n, N)
        site = broken.site
        site.images[broken.algebra.basis.var(g)] = image(site.registry.poly)
        pairs = set(broken.site_poisson_failures)
        assert pairs and not broken.site_is_gram
        seen = set()
        for side, m in all_windows(broken):
            fails = window_poisson_failures(broken, side, m)
            assert fails and set(fails) <= pairs, (g.name, side, m)
            seen.update(fails)
            assert not window_is_gram(broken, side, m), (g.name, side, m)
        assert seen == pairs


def test_vanishing_substitutes_nothing_for_degenerate_parameters(
        monkeypatch):
    """alpha^(1) and alpha^(2) vanish on sites 1..3, so on the left window
    m = 3 the rows of A are q, p, 0, 0: the Gram check still certifies every
    window without substituting, and the substitution agrees."""
    ctx = PhaseContext(5, 5, {1: [0, 0, 0, 1, 0], 2: [0, 0, 0, 0, 1],
                              3: [1, 1, 1, 1, 1]})
    calls = _counting_substitution(monkeypatch)
    rep = check_vanishing(ctx)
    assert rep.passed and rep.data["threshold_nonzero"] is True
    assert calls == []
    assert not integrals_via_coproduct(ctx, "left", 3)


def test_involution_small():
    for (n, N) in ((2, 3), (3, 4)):
        ctx = PhaseContext.seeded(n, N)
        rep = check_involution(ctx)
        assert rep.passed


def test_memoised_images_and_integrals_match_a_fresh_context():
    ctx = PhaseContext.seeded(4, 6)
    windows = (("left", 4), ("right", 5), ("left", 6), ("right", 1))
    images = {w: ctx.realization_images(*w) for w in windows}
    sets = {side: integral_set(ctx, side) for side in ("left", "right")}
    # the checks that read the shared results leave them as they were
    assert check_realization_homomorphism(ctx).passed
    assert check_route_equivalence(ctx).passed
    assert check_vanishing(ctx).passed
    assert check_involution(ctx).passed
    assert check_independence(ctx).independent
    fresh = PhaseContext.seeded(4, 6)

    def plain(polys):
        return {key: p.terms for key, p in polys.items()}

    assert ctx.realization_images("left") is images[("left", 6)]
    for w, imgs in images.items():
        assert ctx.realization_images(*w) is imgs
        assert plain(imgs) == plain(fresh.realization_images(*w))
        for g in ctx.algebra.basis.order:
            assert realize(ctx, g, *w).terms == realize(fresh, g, *w).terms
    for side, members in sets.items():
        assert integral_set(ctx, side) is members
        assert plain(members) == plain(integral_set(fresh, side))


def test_each_square_is_built_once_per_site_subset(monkeypatch):
    n, N = 4, 7
    coalgebra_module = importlib.import_module("gnlab.coalgebra")
    real = coalgebra_module.building_block
    dets = Counter()

    def counting(ctx, indices):
        dets[tuple(indices)] += 1
        return real(ctx, indices)

    monkeypatch.setattr(coalgebra_module, "building_block", counting)
    ctx = PhaseContext.seeded(n, N, alpha_seed=2)
    family = integral_family(ctx)
    # one det per 4-subset of 7 sites, not one per (side, window, subset)
    assert dets == Counter(combinations(range(1, N + 1), n))
    fresh = PhaseContext.seeded(n, N, alpha_seed=2)
    for name, p in family.items():
        side, m = name.split("_m")
        a, b = window(side, int(m), N)
        squares = [real(fresh, c) ** 2
                   for c in combinations(range(a, b + 1), n)]
        want = -sum(squares, fresh.registry.zero())
        assert p.terms == want.terms


def test_integral_set_refuses_sizes_over_the_budget(monkeypatch):
    def no_block(ctx, indices):
        raise AssertionError("built a building block over the budget")

    monkeypatch.setattr(coalgebra_module, "building_block", no_block)
    # C(86, 3) = 102,340 pairs per side at (2, 85); level 13 is one too many
    for n, N, message in ((2, 85, "above the budget 100,000"),
                          (13, 13, "levels above 12 are refused")):
        with pytest.raises(BudgetExceeded, match=message):
            integral_set(PhaseContext.seeded(n, N), "left")
    for n, N in ((2, 84), (4, 14), (6, 12), (9, 9), (12, 12)):
        check_integral_budget(n, N)


def test_integral_family_order_and_members():
    ctx = PhaseContext.seeded(3, 5)
    family = integral_family(ctx)
    assert list(family) == ["left_m3", "left_m4", "left_m5",
                            "right_m3", "right_m4"]
    for name, p in family.items():
        side, m = name.split("_m")
        assert p == sum_of_squares(ctx, side, int(m))


def test_independence_counts():
    res = check_independence(PhaseContext.seeded(2, 3), seed=0)
    assert res.independent
    assert res.expected == 4
    res = check_independence(PhaseContext.seeded(3, 4), seed=0)
    assert res.independent
    assert res.expected == 4
    assert len(res.attempts) <= 5


@pytest.mark.parametrize("n,N,rows", [
    (3, 6, None), (4, 7, None), (5, 8, None), (4, 5, RATIONAL_ROWS),
    # alpha^(2) = 2 alpha^(1): every Gram matrix is singular
    (4, 5, {1: [1, 2, 0, 0, 3], 2: [2, 4, 0, 0, 6]}),
    # parameters on sites 5 and 6 alone: the left windows 4 and 5 are
    # singular, the others are not
    (4, 6, {1: [0, 0, 0, 0, 1, 2], 2: [0, 0, 0, 0, 3, 1]})])
def test_gradients_match_the_partials_of_the_integrals(n, N, rows):
    """At the first points `check_independence` draws for seed 0, each
    window's gradient from its Gram adjugate is the built integral's
    partials evaluated there, and H's gradient is (q, p)."""
    ctx = PhaseContext(n, N, rows) if rows else PhaseContext.seeded(n, N)
    state = ctx.state_vars()
    H = harmonic_hamiltonian(ctx)
    rng = random.Random(0)
    for _ in range(2):
        point = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for v in state}
        assert [evaluate(H.partial(v), point) for v in state] == \
            [point[v] for v in state]
        for name, f in integral_family(ctx).items():
            side, m = name.split("_m")
            a, b = window(side, int(m), N)
            got = coalgebra_module._gradient(ctx, range(a, b + 1), point)
            assert [got.get(j, 0) for j in range(2 * N)] == \
                [evaluate(f.partial(v), point) for v in state], name


@pytest.mark.parametrize("n,N,rows", [
    (3, 6, None), (4, 7, None), (4, 5, RATIONAL_ROWS),
    # every Gram matrix singular: the Jacobian is rank deficient
    (4, 5, {1: [1, 2, 0, 0, 3], 2: [2, 4, 0, 0, 6]})])
def test_independence_takes_the_exact_rank_only_below_full(monkeypatch, n,
                                                           N, rows):
    """A modular rank that reaches the expected count decides without an
    exact rank, and one that falls short is followed by the exact rank:
    at every point where a patched rank always falls short.  Under that
    patch, and under the prime 3, the result is the same."""
    poly_module = importlib.import_module("gnlab.poly")
    real = coalgebra_module.rank_rational
    exact = []

    def counting(rows):
        exact.append(1)
        return real(rows)

    monkeypatch.setattr(coalgebra_module, "rank_rational", counting)

    def context():
        return PhaseContext(n, N, rows) if rows else \
            PhaseContext.seeded(n, N)

    want = check_independence(context())
    assert len(exact) == (0 if want.independent else len(want.attempts))
    for patch in ((coalgebra_module, "rank_mod_p", lambda rows, limit: -1),
                  (poly_module, "PRIME", 3)):
        with monkeypatch.context() as m:
            m.setattr(*patch)
            exact.clear()
            assert check_independence(context()) == want
            if patch[1] == "rank_mod_p":
                assert len(exact) == len(want.attempts)


def test_adjugate_matches_the_cofactors():
    """adj G from Faddeev-LeVerrier against signed cofactors by plain
    expansion, on nonsingular and singular rational matrices."""
    reg = VarRegistry()
    third = Fraction(1, 3)
    for G in ([[2, -1, 0], [Fraction(1, 2), 3, 4], [5, -2 * third, 1]],
              [[Fraction(3, 4), 1, 0, 2], [1, -2, third, 0],
               [0, third, 5, 1], [2, 0, 1, -1]],
              # rank 2 of 3: adj G has rank 1
              [[1, 2, 3], [2, 4, 6], [1, 0, third]],
              # rank 1 of 3: adj G is zero
              [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
              [[4, 6], [6, 9]]):
        G = [[Fraction(x) for x in row] for row in G]
        size = len(G)
        adj = coalgebra_module._adjugate(G)
        for i in range(size):
            for j in range(size):
                minor = [[reg.const(G[r][c]) for c in range(size) if c != i]
                         for r in range(size) if r != j]
                assert (-1) ** (i + j) * cofactor_det(minor) == adj[i][j]
    assert coalgebra_module._adjugate([[Fraction(5)]]) == [[1]]


def test_independence_rejects_undersized_phase_space():
    with pytest.raises(ValueError):
        check_independence(PhaseContext.seeded(3, 2))
