"""Phase-space realisations and first-integral families.

A level-n algebra acts on one canonical site (q, p) with parameters
a_1..a_{n-2} through

    h   -> q p          x- -> -q^2 / 2          x+ -> p^2 / 2
    y_{i,-} -> -a_i q          y_{i,+} -> a_i p          z_{i,j} -> a_i a_j

and on N canonical degrees of freedom by summing that site map over a site
window, site k taking q_k, p_k and the k-th entries a^(i)_k of rational
parameter rows a^(i) of length N: sites 1..m on the left, N-m+1..N on the
right.  This window map phi_m is the primitive coproduct x -> x(1) + ... +
x(m) followed by the one-site realisation (the tests build the coproduct).
C_n o phi_m is one conserved quantity per window size m, I_m = -det(A A^T)
with A the parameter rows and one q and one p row over the window: minus
the sum of the squared n x n minors of A (the "building blocks"), each
squared once when `integrals` or `simulate` builds them.

`verify` builds no integral and no window image: it certifies I_m =
C_n o phi_m by Cauchy-Binet from phi_m(M) = A A^T, and reads the
threshold, involution and independence from the same identity: the rank
of the parameter rows, the Poisson property of the window maps, and
A A^T's adjugate.  Every window image is a sum of site images, so the
Gram identity and the Poisson property are each checked once, on the
symbolic site (`PhaseContext.site_is_gram`,
`PhaseContext.site_poisson_failures`), for every window and parameter
value at once.

A realisation maps polynomials in the generators to polynomials in (q, p),
and the rings keep separate registries: the algebra's own, a phase
registry of q1, p1, ..., qN, pN alone, and the site's of q, p and the a_i.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

from .algebra import Generator, GnAlgebra, build_gn
from .casimir import CasimirResult, casimir
from .poly import (BudgetExceeded, Polynomial, RegistryMismatch, VarId,
                   VarRegistry, derive, det, poly_sum, rank_mod_p,
                   rank_rational)
from .reports import Report


def window(side: str, m: int, N: int) -> tuple[int, int]:
    """Inclusive 1-based site range: left windows grow from site 1, right
    windows end at site N."""
    if not 1 <= m <= N:
        raise ValueError(f"window size {m} outside [1, {N}]")
    if side == "left":
        return (1, m)
    if side == "right":
        return (N - m + 1, N)
    raise ValueError(f"side must be left or right, not {side!r}")


# Highest level whose building blocks are expanded, and most (window, site
# subset) pairs, C(N + 1, n + 1), that the integrals of one side sum.  With
# N = n, `integrals --format json` takes 0.45 s and 24 MB at level 12, and
# each level above up to doubles both: 1.1 s and 53 MB at 14, 4.4 s and
# 218 MB at 16.  At n = 2 it takes 2.7 s and 40 MB for N = 80 (85,320
# pairs), 6.1 s and 63 MB for N = 100 (166,650) and 25 s and 174 MB for
# N = 150 (562,475); fresh processes on a 2-core x86-64 host.
MAX_BLOCK_N = 12
MAX_INTEGRAL_PAIRS = 100_000


def check_integral_budget(n: int, N: int) -> None:
    """Raise BudgetExceeded unless the integrals at level n over N sites
    fit `MAX_BLOCK_N` and `MAX_INTEGRAL_PAIRS`."""
    if n > MAX_BLOCK_N:
        raise BudgetExceeded(
            f"building blocks of level {n} are too large to expand: levels "
            f"above {MAX_BLOCK_N} are refused")
    pairs = math.comb(N + 1, n + 1)
    if pairs > MAX_INTEGRAL_PAIRS:
        raise BudgetExceeded(
            f"the integrals at n = {n}, N = {N} sum {pairs:,} (window, site "
            f"subset) pairs per side, above the budget {MAX_INTEGRAL_PAIRS:,}")


class Site:
    """One symbolic site of a level-n realisation: a registry of the
    canonical pair q, p and the parameters a_1..a_{n-2} as symbols, and the
    image of every generator there, by variable (see the module docstring).
    `pairs` is its one canonical pair, so `canonical_bracket` differentiates
    q and p alone and treats the a_i as constants."""

    def __init__(self, algebra: GnAlgebra):
        self.registry = VarRegistry(
            ("q", "p", *(f"a{i}" for i in range(1, algebra.n - 1))))
        self.pairs = (self.registry.var_ids[:2],)
        self.images = {algebra.basis.var(g): self._image(g)
                       for g in algebra.basis.order}

    def _image(self, g: Generator) -> Polynomial:
        P = self.registry.poly
        if g.kind == "h":
            return P("q") * P("p")
        if g.kind == "xm":
            return P("q") * P("q") * Fraction(-1, 2)
        if g.kind == "xp":
            return P("p") * P("p") * Fraction(1, 2)
        if g.kind == "ym":
            return P("q") * -P(f"a{g.i}")
        if g.kind == "yp":
            return P("p") * P(f"a{g.i}")
        # central
        return P(f"a{g.i}") * P(f"a{g.j}")


class PhaseContext:
    """One realisation workspace: algebra level n, N canonical pairs, and
    the rational parameter rows.

    `registry` holds the phase variables q1, p1, q2, p2, ..., qN, pN only,
    and `pairs` their canonical pairs (q_k, p_k); the generator variables
    live in `algebra.registry`, and `realize_poly` carries a polynomial
    from that registry into this one.  `site` is the symbolic site whose
    images every window image sums.
    """

    def __init__(self, n: int, N: int, alpha_rows=None):
        if N < 1:
            raise ValueError("at least one degree of freedom is required")
        self.algebra = build_gn(n)
        self.n = n
        self.N = N
        self.registry = VarRegistry(f"{x}{k}" for k in range(1, N + 1)
                                    for x in "qp")
        self._q = self.registry.var_ids[0::2]
        self._p = self.registry.var_ids[1::2]
        self.pairs = tuple(zip(self._q, self._p))
        self.site = Site(self.algebra)
        rows: dict[int, tuple[Fraction, ...]] = {}
        if alpha_rows is None:
            alpha_rows = {}
        for i in range(1, n - 1):
            if i not in alpha_rows:
                raise ValueError(f"missing parameter row {i}")
            row = tuple(Fraction(v) for v in alpha_rows[i])
            if len(row) != N:
                raise ValueError(f"parameter row {i} must have length {N}")
            rows[i] = row
        self.alpha_rows = rows
        # memoised window images by site range
        self._images: dict[tuple[int, int], dict[VarId, Polynomial]] = {}

    @classmethod
    def seeded(cls, n: int, N: int, alpha_seed: int = 1) -> "PhaseContext":
        """Deterministic nonzero integer parameters in [-9, 9] drawn from
        the seed."""
        rng = random.Random(alpha_seed)
        rows = {i: [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
                    for _ in range(N)]
                for i in range(1, n - 1)}
        return cls(n, N, rows)

    # ------------------------------------------------------------------
    def alpha(self, i: int, k: int) -> Fraction:
        return self.alpha_rows[i][k - 1]

    def qvar(self, k: int) -> VarId:
        return self._q[k - 1]

    def pvar(self, k: int) -> VarId:
        return self._p[k - 1]

    def q(self, k: int) -> Polynomial:
        return self.registry.poly(self.qvar(k))

    def p(self, k: int) -> Polynomial:
        return self.registry.poly(self.pvar(k))

    def state_vars(self) -> tuple[VarId, ...]:
        """q1..qN then p1..pN; the column order of trajectories."""
        return self._q + self._p

    def check_phase(self, f: Polynomial) -> None:
        """Raise RegistryMismatch, a ValueError, unless `f` is a polynomial
        over this context's phase registry."""
        if f.registry is not self.registry:
            raise RegistryMismatch(
                "non-phase polynomial: not over this context's q and p")

    @cached_property
    def casimir(self) -> CasimirResult:
        """C_n of this context's algebra, built on first use."""
        return casimir(self.algebra)

    @cached_property
    def site_poisson_failures(self) -> tuple[str, ...]:
        """The generator pairs (a, b), as "(a, b)", on which the site map
        is not a Poisson map: the canonical bracket over (q, p) of the site
        images of a and b is not the site image of [a, b].

        A window map sends each generator to the sum over its sites of the
        site image with the a_i set to that site's parameters; brackets of
        different sites vanish, and the bracket differentiates q and p
        alone, so setting the a_i commutes with it.  With no failure here
        every window map is a Poisson map, for every window and every
        parameter value."""
        site, alg = self.site, self.algebra
        image = {g: site.images[alg.basis.var(g)] for g in alg.basis.order}
        return tuple(
            f"({a.name}, {b.name})"
            for a, b in combinations(alg.basis.order, 2)
            if canonical_bracket(site, image[a], image[b])
            != alg.constants.of(a, b).substitute(site.images))

    @cached_property
    def site_is_gram(self) -> bool:
        """Whether the bordered matrix M of C_n realised on the site is
        a a^T entry by entry, with a = (a_1, ..., a_{n-2}, q, p).  Each
        entry of M is linear in the generators, so realised over a window
        it is the sum over the window's sites of its site image, and M
        realises to A A^T, A the rows alpha^(1..n-2), q, p over the window
        (`_window_rows`), for every window and parameter value."""
        site, matrix = self.site, self.casimir.matrix
        q, p, *params = site.registry.var_ids
        a = [site.registry.poly(v) for v in (*params, q, p)]
        return all(matrix[i][j].substitute(site.images) == a[i] * a[j]
                   for i, j in product(range(self.n), repeat=2))

    @cached_property
    def integrals(self) -> dict[str, dict[int, Polynomial]]:
        """Minus the sum of squared building blocks over each window, by
        side and window size m = n..N, built on first use in one pass: a
        site subset S first enters the left window max S and the right
        window N + 1 - min S, so each square is subtracted from those two
        windows' increments, and each side's windows are running sums."""
        n, N = self.n, self.N
        check_integral_budget(n, N)
        sets = {s: {m: {} for m in range(n, N + 1)} for s in ("left", "right")}
        for combo in combinations(range(1, N + 1), n):
            blk = building_block(self, combo)
            square = (blk * blk).terms
            for step in (sets["left"][combo[-1]],
                         sets["right"][N + 1 - combo[0]]):
                for mono, c in square.items():
                    step[mono] = step.get(mono, 0) - c
        for members in sets.values():
            total = self.registry.zero()
            for m, step in members.items():
                members[m] = total = total + Polynomial(self.registry, step)
        return sets

    # ------------------------------------------------------------------
    def realization_images(self, side: str = "left",
                           m: int | None = None) -> dict[VarId, Polynomial]:
        """The image of every generator over a site window: the sum over
        the window's sites k of its site image with q -> q_k, p -> p_k and
        a_i -> a^(i)_k.  Built once per site range (the two full windows
        share one) and shared between callers, which must not mutate it."""
        sites = window(side, self.N if m is None else m, self.N)
        images = self._images.get(sites)
        if images is None:
            a, b = sites
            reg = self.registry
            # the values of the site variables q, p, a_1.. at each site
            values = [dict(zip(self.site.registry.var_ids, (
                self.q(k), self.p(k),
                *(reg.const(self.alpha(i, k)) for i in range(1, self.n - 1)))))
                for k in range(a, b + 1)]
            images = self._images[sites] = {
                v: poly_sum(reg, [f.substitute(at) for at in values])
                for v, f in self.site.images.items()}
        return images

    def realize_poly(self, f: Polynomial, side: str = "left",
                     m: int | None = None) -> Polynomial:
        """Realize a polynomial in generator variables over a site window.

        Raise RegistryMismatch, a ValueError, unless `f` is over this
        context's algebra registry."""
        if f.registry is not self.algebra.registry:
            raise RegistryMismatch(
                "not a polynomial in this context's generators")
        return f.substitute(self.realization_images(side, m))


# ----------------------------------------------------------------------
# Brackets and integrals


def canonical_bracket(space, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f,g} = sum_k df/dq_k dg/dp_k - dg/dq_k df/dp_k over the canonical
    pairs (q_k, p_k) of `space` (a `PhaseContext` or a `Site`), exact,
    computed as the Hamiltonian field X_g = sum_k (dg/dp_k d/dq_k - dg/dq_k
    d/dp_k) applied to f.  Any other variable of the space's registry is a
    constant to it."""
    for h in (f, g):
        if h.registry is not space.registry:
            raise RegistryMismatch(
                "non-phase polynomial: not over the space's q and p")
    # g scaled to integer coefficients, so that `derive` multiplies
    # integers only; the scale is divided out of the result
    den = g.denominator()
    g = g * den
    field: dict[int, dict] = {}
    for qv, pv in space.pairs:
        field[qv.index] = g.partial(pv).terms
        field[pv.index] = (-g.partial(qv)).terms
    # a nonconstant g has a partial of degree deg g - 1
    return Polynomial(space.registry, derive(
        f.terms, f.total_degree(), field,
        g.total_degree() - 1)) * Fraction(1, den)


def _window_rows(ctx: PhaseContext, sites, point=None) -> list[list]:
    """The n x |sites| matrix A over the given sites, as its rows: the
    parameter rows alpha^(1..n-2), then the q row and the p row.  Its
    entries are polynomials, or rationals with q and p read from `point`
    (phase variable -> value)."""
    const, value = ((ctx.registry.const, ctx.registry.poly) if point is None
                    else (Fraction, point.__getitem__))
    rows = [[const(ctx.alpha(i, k)) for k in sites]
            for i in range(1, ctx.n - 1)]
    rows.append([value(ctx.qvar(k)) for k in sites])
    rows.append([value(ctx.pvar(k)) for k in sites])
    return rows


def building_block(ctx: PhaseContext, indices) -> Polynomial:
    """Determinant of the n x n matrix with the parameter rows on top and
    the q and p rows at the bottom, columns picked by `indices`."""
    idx = tuple(indices)
    if len(idx) != ctx.n:
        raise ValueError(f"need exactly {ctx.n} site indices")
    if any(not 1 <= k <= ctx.N for k in idx) or \
            any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("site indices must be strictly increasing in [1, N]")
    return det(_window_rows(ctx, idx))


def integral_set(ctx: PhaseContext, side: str) -> dict[int, Polynomial]:
    """Conserved quantities for every admissible window m = n..N, keyed by
    window size, from the sum-of-squares route (`PhaseContext.integrals`),
    shared between callers, which must not mutate them."""
    window(side, ctx.N, ctx.N)  # an unknown side raises before any work
    return ctx.integrals[side]


def integral_family(ctx: PhaseContext) -> dict[str, Polynomial]:
    """The family whose drift is simulated and whose independence is
    checked (over the same windows, unbuilt): left_m{m} for m = n..N, then
    right_m{m} for m = n..N-1 (the right full window repeats the left)."""
    left = integral_set(ctx, "left")
    right = integral_set(ctx, "right")
    family = {f"left_m{m}": left[m] for m in range(ctx.n, ctx.N + 1)}
    family.update((f"right_m{m}", right[m]) for m in range(ctx.n, ctx.N))
    return family


# ----------------------------------------------------------------------
# Checks


def check_realization_homomorphism(ctx: PhaseContext) -> Report:
    """Canonical brackets of realised generators match realised brackets
    over the full window: the site map is a Poisson map
    (`PhaseContext.site_poisson_failures`), and the full-window map sums it
    over the sites."""
    fails = [f"realisation breaks on {pair}"
             for pair in ctx.site_poisson_failures]
    return Report("realization",
                  {"n": ctx.n, "N": ctx.N,
                   "pairs": math.comb(ctx.algebra.basis.dim, 2)}, fails)


def check_route_equivalence(ctx: PhaseContext) -> Report:
    """C_n realised over each window m = n..N of both sides is the window's
    integral, minus the sum of its squared building blocks, by Cauchy-Binet:
    the window realisation phi_m is a ring homomorphism and C_n = -det M,
    and phi_m(M) = A A^T over every window because M realises to a a^T on
    the site (`PhaseContext.site_is_gram`), so C_n o phi_m = -det(A A^T) =
    -sum_S det(A_S)^2 over the n-subsets S of the window, each det(A_S) a
    building block.  A site that fails fails every window.

    This builds no integral and no window image; the tests cover the built
    ones (the `sum_of_squares`, C_n-substitution and per-window Gram
    oracles in tests/test_coalgebra.py, the cofactor and sympy oracles for
    `det`)."""
    windows = [(side, m) for side in ("left", "right")
               for m in range(ctx.n, ctx.N + 1)]
    fails = [] if ctx.site_is_gram else [
        f"routes differ at side={side}, m={m}" for side, m in windows]
    return Report("route_equivalence",
                  {"n": ctx.n, "N": ctx.N, "windows": len(windows)}, fails)


def check_vanishing(ctx: PhaseContext) -> Report:
    """Below the threshold window m = n the realised invariant is zero: M
    realises to A A^T over every window (`PhaseContext.site_is_gram`), and
    a product through m < n columns has rank at most m, so C_n = -det M
    realises to zero.  At m = n it is -det(A)^2, and by Laplace along the q
    and p rows det A sums the independent q_a p_b - q_b p_a (a < b) times
    the complementary (n-2)-minors of the parameter rows: it is nonzero
    exactly when those rows have rank n - 2 over the window."""
    fails = [] if ctx.site_is_gram else [
        f"realised M is not A A^T: side={side}, m={m}"
        for side in ("left", "right")
        for m in range(1, min(ctx.n, ctx.N + 1))]
    threshold_nonzero = None
    if ctx.N >= ctx.n:
        threshold_nonzero = all(
            rank_rational(dict(enumerate(row[a - 1:b]))
                          for row in ctx.alpha_rows.values()) == ctx.n - 2
            for a, b in (window(side, ctx.n, ctx.N)
                         for side in ("left", "right")))
        if not threshold_nonzero:
            fails.append("vanishes at the threshold window m = n")
    return Report("vanishing",
                  {"n": ctx.n, "N": ctx.N,
                   "threshold_nonzero": threshold_nonzero}, fails)


def check_involution(ctx: PhaseContext) -> Report:
    """Within each side the window integrals I_m = C_n o phi_m, m = n..N,
    commute pairwise and with every fully realised generator, by the
    coalgebra argument (Ballesteros & Ragnisco, J. Phys. A 31 (1998) 3791)
    from three premises: every window map phi_m is a Poisson map,
    {phi_m(a), phi_m(b)} = phi_m([a, b]), because the site map is one
    (`PhaseContext.site_poisson_failures`, which
    `check_realization_homomorphism` reports for the full window and this
    check for each proper window m = n..N-1 of both sides); C_n is a
    Lie-Poisson Casimir (`verify_annihilation`); and I_m = C_n o phi_m
    (`check_route_equivalence`).

    So {I_m, phi_m(g)} = phi_m({C_n, g}) = 0.  For m <= k, phi_k(g) -
    phi_m(g) is a constant or lives on sites outside window m, where I_m
    has no variable, so {I_m, phi_k(g)} = 0 and by Leibniz {I_m, I_k} =
    sum_g dC_n/dg(phi_k) {I_m, phi_k(g)} = 0: the `pairs`.  The k = N case
    gives the `generator_brackets`, dim g_n per integral.  The two full
    windows are one site range, so one integral.

    A pass holds only together with the three checks above, which `verify`
    runs in the same report.  No integral or window image is built or
    bracketed here, and with N = n nothing is bracketed; the oracles in
    tests/test_coalgebra.py bracket them."""
    if ctx.N < ctx.n:
        raise ValueError("no integrals exist for N < n")
    fails = [f"window map breaks on {pair}: side={side}, m={m}"
             for side in ("left", "right") for m in range(ctx.n, ctx.N)
             for pair in ctx.site_poisson_failures]
    windows = ctx.N - ctx.n + 1
    return Report("involution",
                  {"n": ctx.n, "N": ctx.N, "pairs": 2 * math.comb(windows, 2),
                   "generator_brackets": ctx.algebra.basis.dim * 2 * windows},
                  fails)


# Random phase points `check_independence` tries before it reports a rank
# deficiency.
INDEPENDENCE_ATTEMPTS = 5

# Most entries, (2(N - n) + 2) x 2N, of the Jacobian whose rank
# `check_independence` takes, the one part of `verify` that grows with N.
# Near the budget `verify` takes 0.6 s at (2, 86) and 0.9 s at (3, 87),
# and 24 s at (3, 87) with parameters zero on every site but the first,
# where the Jacobian is rank deficient and each of the five points takes
# an exact rank; about 20 MB each, fresh processes on a 2-core x86-64
# host.  It admits every size the integral budget admitted, up to (2, 84).
MAX_JACOBIAN_ENTRIES = 30_000


def check_jacobian_budget(n: int, N: int) -> None:
    """Raise BudgetExceeded unless the independence Jacobian at level n
    over N sites has at most `MAX_JACOBIAN_ENTRIES` entries."""
    rows, cols = 2 * (N - n) + 2, 2 * N
    if rows * cols > MAX_JACOBIAN_ENTRIES:
        raise BudgetExceeded(
            f"the independence Jacobian at n = {n}, N = {N} has {rows} x "
            f"{cols} = {rows * cols:,} entries, above the budget "
            f"{MAX_JACOBIAN_ENTRIES:,}")


class IndependenceResult(NamedTuple):
    rank: int
    expected: int
    attempts: tuple[int, ...]

    @property
    def independent(self) -> bool:
        return self.rank == self.expected


def _adjugate(G: list[list[Fraction]]) -> list[list[Fraction]]:
    """adj G of a square rational matrix of size s by Faddeev-LeVerrier:
    from B_1 = I and B_{k+1} = tr(G B_k) / k I - G B_k, adj G = B_s.  It
    divides by k alone, so a singular G needs no branch."""
    s = len(G)
    B = [[Fraction(i == j) for j in range(s)] for i in range(s)]
    for k in range(1, s):
        B = [[-sum(x * y for x, y in zip(row, col)) for col in zip(*B)]
             for row in G]
        c = -sum(B[i][i] for i in range(s)) / k
        for i in range(s):
            B[i][i] += c
    return B


def _gradient(ctx: PhaseContext, sites: range,
              point: dict[VarId, Fraction]) -> dict[int, Fraction]:
    """The gradient at `point` of the integral over a window, -det G with
    G = A A^T (`_window_rows`), by state column: q_k at k - 1 and p_k at
    N + k - 1.  By Jacobi's formula, with dG/dq_k = e_q a_k^T + a_k e_q^T
    for a_k the column of site k, dI/dq_k = -2 (adj G A)_{q,k}, and
    likewise for p."""
    A = _window_rows(ctx, sites, point)
    adj = _adjugate([[sum(x * y for x, y in zip(r, s)) for s in A]
                     for r in A])
    return {k + offset: -2 * sum(x * y for x, y in zip(row, col))
            for row, offset in ((adj[-2], -1), (adj[-1], ctx.N - 1))
            for k, col in zip(sites, zip(*A))}


def check_independence(ctx: PhaseContext, seed: int = 0) -> IndependenceResult:
    """Jacobian rank of the harmonic H and the `integral_family` {left
    m=n..N, right m=n..N-1} at random rational phase points, resampling on
    deficiency up to `INDEPENDENCE_ATTEMPTS` times; the expected count is
    2(N - n) + 2.  H = sum_k (p_k^2 + q_k^2) / 2 has gradient (q, p), and
    each integral's gradient is read from its Gram adjugate (`_gradient`).
    The rank is taken modulo a prime (`rank_mod_p`) first, and exactly
    (`rank_rational`) only where that falls below the expected count.
    """
    if ctx.N < ctx.n:
        raise ValueError("no integrals exist for N < n")
    n, N = ctx.n, ctx.N
    windows = [range(a, b + 1) for a, b in (
        window(side, m, N) for side, top in (("left", N + 1), ("right", N))
        for m in range(n, top))]
    expected = 2 * (N - n) + 2
    state = ctx.state_vars()
    rng = random.Random(seed)
    attempts: list[int] = []
    r = 0
    for _ in range(INDEPENDENCE_ATTEMPTS):
        point = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for v in state}
        rows = [{j: point[v] for j, v in enumerate(state)},
                *(_gradient(ctx, sites, point) for sites in windows)]
        # a rank modulo a prime is at most the exact one, so reaching the
        # row count certifies it; below that the exact rank decides
        r = rank_mod_p(rows, expected)
        if r != expected:
            r = rank_rational(rows)
        attempts.append(r)
        if r == expected:
            break
    return IndependenceResult(rank=r, expected=expected,
                              attempts=tuple(attempts))
