"""Phase-space realisations and first-integral families.

A level-n algebra acts on N canonical degrees of freedom through

    h   -> sum q_k p_k          x- -> -sum q_k^2 / 2      x+ -> sum p_k^2 / 2
    y_{i,-} -> -sum a^(i)_k q_k          y_{i,+} -> sum a^(i)_k p_k
    z_{i,j} -> sum a^(i)_k a^(j)_k

with the sums over a site window: sites 1..m on the left, N-m+1..N on the
right, and rational parameter rows a^(i) of length N.  Feeding these images
into the degree-n invariant C_n produces one conserved quantity per window
size m; the same quantity is, independently, minus a sum of squared n x n
determinants built from the parameter rows and one q and one p row (the
"building blocks").  Both routes are implemented and compared.

The window realisation is the primitive coproduct x -> x(1) + ... + x(m)
followed by the one-site realisation on every site, which is why the
substitution route carries the coproduct's name.  The coproduct on a
tensor registry itself is not needed here; the tests build it to check
coassociativity and that it is an algebra homomorphism.

A realisation maps polynomials in the generators to polynomials in (q, p),
and the two rings keep separate registries: the algebra's own, and a phase
registry of q1, p1, ..., qN, pN alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .algebra import Generator, X_MINUS, X_PLUS, build_gn
from .casimir import CasimirResult, casimir, generating_set
from .poly import (Polynomial, RegistryMismatch, VarId, VarRegistry, derive,
                   det, poly_sum, rank_rational)
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


class PhaseContext:
    """One realisation workspace: algebra level n, N canonical pairs, and
    the rational parameter rows.

    `registry` holds the phase variables q1, p1, q2, p2, ..., qN, pN only;
    the generator variables live in `algebra.registry`, and
    `realize_poly` carries a polynomial from that registry into this one.
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
        # memoised window images by site range and integrals by side
        self._images: dict[tuple[int, int], dict[VarId, Polynomial]] = {}
        self._integrals: dict[str, dict[int, Polynomial]] = {}

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

    # ------------------------------------------------------------------
    def realize(self, g: Generator, side: str = "left",
                m: int | None = None) -> Polynomial:
        """Image of one generator over a site window."""
        return self.realization_images(side, m)[self.algebra.basis.var(g)]

    def _image(self, g: Generator, sites: range) -> Polynomial:
        reg = self.registry
        if g.kind == "h":
            return sum((self.q(k) * self.p(k) for k in sites), reg.zero())
        if g.kind == "xm":
            return sum((self.q(k) * self.q(k) for k in sites),
                       reg.zero()) * Fraction(-1, 2)
        if g.kind == "xp":
            return sum((self.p(k) * self.p(k) for k in sites),
                       reg.zero()) * Fraction(1, 2)
        if g.kind == "ym":
            return sum((self.q(k) * -self.alpha(g.i, k) for k in sites),
                       reg.zero())
        if g.kind == "yp":
            return sum((self.p(k) * self.alpha(g.i, k) for k in sites),
                       reg.zero())
        # central
        return reg.const(sum(self.alpha(g.i, k) * self.alpha(g.j, k)
                             for k in sites))

    def realization_images(self, side: str = "left",
                           m: int | None = None) -> dict[VarId, Polynomial]:
        """The image of every generator over a site window, built once per
        site range (the two full windows share one) and shared between
        callers, which must not mutate it."""
        sites = window(side, self.N if m is None else m, self.N)
        images = self._images.get(sites)
        if images is None:
            a, b = sites
            images = self._images[sites] = {
                self.algebra.basis.var(g): self._image(g, range(a, b + 1))
                for g in self.algebra.basis.order}
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


def harmonic_hamiltonian(ctx: PhaseContext) -> Polynomial:
    """Realisation of x+ - x-: the N-dimensional unit-frequency oscillator
    sum_k (p_k^2 + q_k^2) / 2."""
    P = ctx.algebra.basis.poly
    return ctx.realize_poly(P(X_PLUS) - P(X_MINUS))


# ----------------------------------------------------------------------
# Brackets and integrals


def canonical_bracket(ctx: PhaseContext, f: Polynomial,
                      g: Polynomial) -> Polynomial:
    """{f,g} = sum_k df/dq_k dg/dp_k - dg/dq_k df/dp_k, exact, computed as
    the Hamiltonian field X_g = sum_k (dg/dp_k d/dq_k - dg/dq_k d/dp_k)
    applied to f."""
    ctx.check_phase(f)
    ctx.check_phase(g)
    # g scaled to integer coefficients, so that `derive` multiplies
    # integers only; the scale is divided out of the result
    den = g.denominator()
    g = g * den
    field: dict[int, dict] = {}
    for k in range(1, ctx.N + 1):
        qv, pv = ctx.qvar(k), ctx.pvar(k)
        field[qv.index] = g.partial(pv).terms
        field[pv.index] = (-g.partial(qv)).terms
    # a nonconstant g has a partial of degree deg g - 1
    return Polynomial(ctx.registry, derive(
        f.terms, f.total_degree(), field,
        g.total_degree() - 1)) * Fraction(1, den)


def integrals_via_coproduct(ctx: PhaseContext, side: str, m: int) -> Polynomial:
    """Window-m conserved quantity: the invariant with every generator
    replaced by its window realisation."""
    return ctx.casimir.polynomial.substitute(ctx.realization_images(side, m))


def _window_rows(ctx: PhaseContext, sites) -> list[list[Polynomial]]:
    """The n x |sites| matrix A over the given sites, as its rows: the
    parameter rows alpha^(1..n-2), then the q row and the p row."""
    reg = ctx.registry
    rows = [[reg.const(ctx.alpha(i, k)) for k in sites]
            for i in range(1, ctx.n - 1)]
    rows.append([ctx.q(k) for k in sites])
    rows.append([ctx.p(k) for k in sites])
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


def integrals_via_sum_of_squares(ctx: PhaseContext, side: str, m: int,
                                 squares: dict | None = None) -> Polynomial:
    """Minus the sum of squared building blocks over all increasing
    n-tuples inside the window.  `squares` memoises each square by its
    site subset across the windows of one caller."""
    a, b = window(side, m, ctx.N)
    squares = {} if squares is None else squares
    parts = []
    for combo in combinations(range(a, b + 1), ctx.n):
        sq = squares.get(combo)
        if sq is None:
            blk = building_block(ctx, combo)
            sq = squares[combo] = blk * blk
        parts.append(sq)
    return -poly_sum(ctx.registry, parts)


def integral_set(ctx: PhaseContext, side: str) -> dict[int, Polynomial]:
    """Conserved quantities for every admissible window m = n..N, keyed by
    window size, from the sum-of-squares route.  Both sides are built
    together, once per context, squaring each site subset's building block
    once, and shared between callers, which must not mutate them."""
    window(side, ctx.N, ctx.N)  # an unknown side raises before any work
    if side not in ctx._integrals:
        squares: dict = {}
        for s in ("left", "right"):
            ctx._integrals[s] = {
                m: integrals_via_sum_of_squares(ctx, s, m, squares)
                for m in range(ctx.n, ctx.N + 1)}
    return ctx._integrals[side]


def integral_family(ctx: PhaseContext) -> dict[str, Polynomial]:
    """The family whose independence is checked and whose drift is
    simulated: left_m{m} for m = n..N, then right_m{m} for m = n..N-1 (the
    right full window repeats the left one)."""
    left = integral_set(ctx, "left")
    right = integral_set(ctx, "right")
    family = {f"left_m{m}": left[m] for m in range(ctx.n, ctx.N + 1)}
    family.update((f"right_m{m}", right[m]) for m in range(ctx.n, ctx.N))
    return family


# ----------------------------------------------------------------------
# Checks


def check_realization_homomorphism(ctx: PhaseContext) -> Report:
    """Canonical brackets of realised generators match realised brackets
    over the full window."""
    alg = ctx.algebra
    fails: list[str] = []
    realized = {g: ctx.realize(g) for g in alg.basis.order}
    pairs = 0
    for a, b in combinations(alg.basis.order, 2):
        pairs += 1
        lhs = canonical_bracket(ctx, realized[a], realized[b])
        rhs = ctx.realize_poly(alg.constants.of(a, b))
        if lhs != rhs:
            fails.append(f"realisation breaks on ({a.name}, {b.name})")
    return Report("realization",
                  {"n": ctx.n, "N": ctx.N, "pairs": pairs}, fails)


def check_route_equivalence(ctx: PhaseContext) -> Report:
    """Substitution route equals sum-of-squares route for every window on
    both sides; the two full windows share one substitution of C_n."""
    fails: list[str] = []
    compared = 0
    via_sub: dict[tuple[int, int], Polynomial] = {}
    for side in ("left", "right"):
        for m, via_sq in integral_set(ctx, side).items():
            compared += 1
            sites = window(side, m, ctx.N)
            if sites not in via_sub:
                via_sub[sites] = integrals_via_coproduct(ctx, side, m)
            if via_sub[sites] != via_sq:
                fails.append(f"routes differ at side={side}, m={m}")
    return Report("route_equivalence",
                  {"n": ctx.n, "N": ctx.N, "windows": compared}, fails)


def check_vanishing(ctx: PhaseContext) -> Report:
    """Below the threshold window m = n the realised invariant is
    identically zero: with A the n x m matrix of rows alpha^(1..n-2), q, p
    over the window (`_window_rows`, whose n x n minors are the building
    blocks), the realised bordered matrix M is checked to be A A^T
    entry by entry, and a product through m < n columns has rank at most m,
    so C_n = -det M realises to zero.  At m = n it is not (for generic
    parameters), read from the sum-of-squares route, which
    `check_route_equivalence` compares with the substitution."""
    n, reg, matrix = ctx.n, ctx.registry, ctx.casimir.matrix
    fails: list[str] = []
    for side in ("left", "right"):
        for m in range(1, min(n, ctx.N + 1)):
            a, b = window(side, m, ctx.N)
            A = _window_rows(ctx, range(a, b + 1))
            if any(ctx.realize_poly(matrix[i][j], side, m) != poly_sum(
                    reg, [x * y for x, y in zip(A[i], A[j])])
                   for i in range(n) for j in range(n)):
                fails.append(f"realised M is not A A^T: side={side}, m={m}")
    threshold_nonzero = None
    if ctx.N >= ctx.n:
        threshold_nonzero = all(not integral_set(ctx, side)[ctx.n].is_zero
                                for side in ("left", "right"))
        if not threshold_nonzero:
            fails.append("vanishes at the threshold window m = n")
    return Report("vanishing",
                  {"n": ctx.n, "N": ctx.N,
                   "threshold_nonzero": threshold_nonzero}, fails)


def check_involution(ctx: PhaseContext) -> Report:
    """All stored integrals commute within each side, commute with every
    fully-realised generator, and the two full-window integrals coincide.
    Each `integral_family` member I meets only `generating_set`: by Jacobi
    and `check_realization_homomorphism` the g with {I, phi(g)} = 0 form a
    subalgebra, so these certify the T_n that `generator_brackets` counts
    (the right full-window integral equals the left one, compared last).
    A pass therefore holds only together with a passing
    `check_realization_homomorphism`, which `verify` runs in the same
    report."""
    if ctx.N < ctx.n:
        raise ValueError("no integrals exist for N < n")
    fails: list[str] = []
    sets = {side: integral_set(ctx, side) for side in ("left", "right")}
    pair_count = 0
    for side, iset in sets.items():
        for m1, m2 in combinations(sorted(iset), 2):
            pair_count += 1
            br = canonical_bracket(ctx, iset[m1], iset[m2])
            if not br.is_zero:
                fails.append(f"{{{side} m={m1}, {side} m={m2}}} != 0")
    gen_count = ctx.algebra.basis.dim * sum(map(len, sets.values()))
    for g in generating_set(ctx.algebra):
        d = ctx.realize(g)
        for name, p in integral_family(ctx).items():
            if not canonical_bracket(ctx, p, d).is_zero:
                fails.append(f"{{{name}, {g.name}}} != 0")
    if sets["left"][ctx.N] != sets["right"][ctx.N]:
        fails.append("full-window integrals differ between sides")
    return Report("involution",
                  {"n": ctx.n, "N": ctx.N, "pairs": pair_count,
                   "generator_brackets": gen_count}, fails)


# Random phase points `check_independence` tries before it reports a rank
# deficiency.
INDEPENDENCE_ATTEMPTS = 5


@dataclass(frozen=True)
class IndependenceResult:
    rank: int
    expected: int
    attempts: tuple[int, ...]

    @property
    def independent(self) -> bool:
        return self.rank == self.expected


def check_independence(ctx: PhaseContext, seed: int = 0) -> IndependenceResult:
    """Jacobian rank of the harmonic H and the `integral_family` {left
    m=n..N, right m=n..N-1} at random rational phase points, resampling on
    deficiency up to `INDEPENDENCE_ATTEMPTS` times.

    The expected count is 2(N - n) + 2.
    """
    if ctx.N < ctx.n:
        raise ValueError("no integrals exist for N < n")
    members = [harmonic_hamiltonian(ctx), *integral_family(ctx).values()]
    expected = 2 * (ctx.N - ctx.n) + 2
    state = ctx.state_vars()
    grads = [[f.partial(v) for v in state] for f in members]
    rng = random.Random(seed)
    attempts: list[int] = []
    r = 0
    for _ in range(INDEPENDENCE_ATTEMPTS):
        point = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for v in state}
        r = rank_rational({j: g.eval(point) for j, g in enumerate(row)}
                          for row in grads)
        attempts.append(r)
        if r == expected:
            break
    return IndependenceResult(rank=r, expected=expected,
                              attempts=tuple(attempts))
