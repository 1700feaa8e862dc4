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
                   check_vanishing, det, harmonic_hamiltonian,
                   integral_family,
                   integral_set, integrals_via_coproduct,
                   integrals_via_sum_of_squares, window)
from conftest import random_poly
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus


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
    assert ctx.realize(H) == q1 * p1 + q2 * p2
    assert ctx.realize(X_PLUS) == (p1 ** 2 + p2 ** 2) * Fraction(1, 2)
    assert ctx.realize(X_MINUS) == -(q1 ** 2 + q2 ** 2) * Fraction(1, 2)
    assert ctx.realize(y_plus(1)) == 2 * p1 - 3 * p2
    assert ctx.realize(y_minus(1)) == -(2 * q1 - 3 * q2)
    assert ctx.realize(central(1, 1)) == ctx.registry.const(13)


def test_realize_windows():
    ctx = PhaseContext.seeded(2, 4)
    assert window("left", 2, ctx.N) == (1, 2)
    assert ctx.realize(X_PLUS, "left", 2) == \
        (ctx.p(1) ** 2 + ctx.p(2) ** 2) * Fraction(1, 2)
    assert window("right", 2, ctx.N) == (3, 4)
    assert ctx.realize(X_PLUS, "right", 2) == \
        (ctx.p(3) ** 2 + ctx.p(4) ** 2) * Fraction(1, 2)


def test_realize_poly_of_constants():
    ctx = PhaseContext.seeded(3, 3)
    reg = ctx.algebra.registry
    for value in (Fraction(-7, 3), Fraction(5), Fraction(0)):
        got = ctx.realize_poly(reg.const(value), "right", 2)
        assert got.registry is ctx.registry
        assert got == ctx.registry.const(value)
    assert ctx.realize_poly(reg.zero()).is_zero
    # a constant of the phase registry is not a polynomial in generators
    with pytest.raises(RegistryMismatch):
        ctx.realize_poly(ctx.registry.const(Fraction(5)))


def test_canonical_bracket_basics():
    ctx = PhaseContext(2, 3)
    assert canonical_bracket(ctx, ctx.q(1), ctx.p(1)) == ctx.registry.one()
    assert canonical_bracket(ctx, ctx.q(1), ctx.q(2)).is_zero
    assert canonical_bracket(ctx, ctx.p(1), ctx.p(2)).is_zero
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
    others = [ctx.realize(g, side, m) for g in ctx.algebra.basis.order
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
        nonzero += not got.is_zero
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


def test_route_equivalence_small():
    for (n, N) in ((2, 3), (3, 4)):
        ctx = PhaseContext.seeded(n, N)
        assert check_route_equivalence(ctx).passed
        for m in range(n, N + 1):
            assert integrals_via_coproduct(ctx, "left", m) == \
                integrals_via_sum_of_squares(ctx, "left", m)


def test_full_window_integral_is_the_realized_invariant():
    ctx = PhaseContext.seeded(3, 4)
    full = integrals_via_coproduct(ctx, "left", ctx.N)
    assert full == ctx.realize_poly(ctx.casimir.polynomial)
    assert full == integrals_via_coproduct(ctx, "right", ctx.N)


def test_vanishing_below_threshold():
    ctx = PhaseContext.seeded(3, 5)
    rep = check_vanishing(ctx)
    assert rep.passed
    assert integrals_via_coproduct(ctx, "left", 2).is_zero
    assert not integrals_via_coproduct(ctx, "left", 3).is_zero


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vanishing_threshold_matches_the_substitution(n):
    """`check_vanishing` reads the threshold window from the sum-of-squares
    route; C_n with the window images substituted is its oracle."""
    ctx = PhaseContext.seeded(n, n)
    rep = check_vanishing(ctx)
    assert rep.passed and rep.data["threshold_nonzero"] is True
    for side in ("left", "right"):
        assert not integrals_via_coproduct(ctx, side, n).is_zero


def test_vanishing_fails_on_a_zero_threshold_integral():
    ctx = PhaseContext.seeded(3, 4)
    integral_set(ctx, "right")[3] = ctx.registry.zero()
    rep = check_vanishing(ctx)
    assert rep.failures == ["vanishes at the threshold window m = n"]
    assert rep.data["threshold_nonzero"] is False


# ----------------------------------------------------------------------
# the routes the certificates replaced, kept here as oracles

coalgebra_module = importlib.import_module("gnlab.coalgebra")
ORACLE_SIZES = [(3, 5), (4, 6), (6, 6)]


def _counting_substitution(monkeypatch):
    """Record each (side, m) that `integrals_via_coproduct` substitutes."""
    real = coalgebra_module.integrals_via_coproduct
    calls = []

    def counting(ctx, side, m):
        calls.append((side, m))
        return real(ctx, side, m)

    monkeypatch.setattr(coalgebra_module, "integrals_via_coproduct",
                        counting)
    return calls


# fractional parameters: A A^T then has non-integral constant entries
RATIONAL_ROWS = {1: ["1/2", -3, "2/3", 5, "-1/7"], 2: [4, "5/6", -1, "3/4", 2]}


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
            assert integrals_via_coproduct(ctx, side, m).is_zero


@pytest.mark.parametrize("n,N", ORACLE_SIZES)
def test_involution_matches_the_all_generator_brackets(n, N):
    """`check_involution` brackets each integral with the generating set;
    every realised generator commutes with every integral."""
    ctx = PhaseContext.seeded(n, N)
    rep = check_involution(ctx)
    assert rep.passed
    members = [p for side in ("left", "right")
               for p in integral_set(ctx, side).values()]
    assert rep.data["generator_brackets"] == \
        len(members) * ctx.algebra.basis.dim
    for g in ctx.algebra.basis.order:
        d = ctx.realize(g)
        for p in members:
            assert canonical_bracket(ctx, p, d).is_zero, g.name


@pytest.mark.parametrize("g", [H, X_PLUS, y_minus(2), central(1, 2)])
def test_vanishing_fails_on_a_perturbed_window_image(g):
    ctx = PhaseContext.seeded(4, 6)
    images = ctx.realization_images("right", 2)
    v = ctx.algebra.basis.var(g)
    images[v] = images[v] + ctx.q(6)
    rep = check_vanishing(ctx)
    assert rep.failures == ["realised M is not A A^T: side=right, m=2"]


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
    assert integrals_via_coproduct(ctx, "left", 3).is_zero


def test_involution_fails_on_an_integral_that_moves_under_x_plus():
    ctx = PhaseContext.seeded(3, 5)
    left = integral_set(ctx, "left")
    # {q1, x+} = p1, while q1 commutes with the images of x- and y_{1,-}
    left[4] = left[4] + ctx.q(1)
    rep = check_involution(ctx)
    assert "{left_m4, xp} != 0" in rep.failures
    assert not [f for f in rep.failures if ", xm}" in f or ", y1m}" in f]


def test_involution_fails_when_the_full_windows_differ():
    """The right full-window integral is bracketed with no generator: it
    must equal the left one, which is."""
    ctx = PhaseContext.seeded(3, 4)
    right = integral_set(ctx, "right")
    right[4] = right[4] + ctx.q(1)
    rep = check_involution(ctx)
    assert rep.failures[-1] == "full-window integrals differ between sides"
    assert not [f for f in rep.failures if f.startswith("{right_m4,")]


def test_route_equivalence_substitutes_the_full_window_once(monkeypatch):
    ctx = PhaseContext.seeded(4, 6)
    assert ctx.realization_images("left") is ctx.realization_images("right")
    calls = _counting_substitution(monkeypatch)
    rep = check_route_equivalence(ctx)
    assert rep.passed and rep.data["windows"] == 6
    assert calls == [("left", 4), ("left", 5), ("left", 6),
                     ("right", 4), ("right", 5)]


def test_involution_small():
    for (n, N) in ((2, 3), (3, 4)):
        ctx = PhaseContext.seeded(n, N)
        rep = check_involution(ctx)
        assert rep.passed
    # directly: two left members commute
    ctx = PhaseContext.seeded(2, 4)
    members = integral_set(ctx, "left")
    assert canonical_bracket(ctx, members[2], members[3]).is_zero
    assert canonical_bracket(ctx, members[2], members[4]).is_zero


def test_integral_set_matches_coproduct_route():
    ctx = PhaseContext.seeded(2, 3)
    for side in ("left", "right"):
        members = integral_set(ctx, side)
        assert list(members) == [2, 3]
        for m, p in members.items():
            assert p == integrals_via_coproduct(ctx, side, m)


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
            assert ctx.realize(g, *w).terms == fresh.realize(g, *w).terms
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


def test_integral_family_order_and_members():
    ctx = PhaseContext.seeded(3, 5)
    family = integral_family(ctx)
    assert list(family) == ["left_m3", "left_m4", "left_m5",
                            "right_m3", "right_m4"]
    for name, p in family.items():
        side, m = name.split("_m")
        assert p == integrals_via_sum_of_squares(ctx, side, int(m))


def test_independence_counts():
    res = check_independence(PhaseContext.seeded(2, 3), seed=0)
    assert res.independent
    assert res.expected == 4
    res = check_independence(PhaseContext.seeded(3, 4), seed=0)
    assert res.independent
    assert res.expected == 4
    assert len(res.attempts) <= 5


def test_independence_rejects_undersized_phase_space():
    with pytest.raises(ValueError):
        check_independence(PhaseContext.seeded(3, 2))


def test_level7_routes_agree_and_vanish_below_threshold():
    ctx = PhaseContext.seeded(7, 7)
    for side in ("left", "right"):
        full = integrals_via_coproduct(ctx, side, 7)
        assert not full.is_zero
        assert full == integrals_via_sum_of_squares(ctx, side, 7)
        assert integrals_via_coproduct(ctx, side, 6).is_zero
