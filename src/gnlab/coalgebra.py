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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import Generator, X_MINUS, X_PLUS, build_gn
from .casimir import casimir
from .poly import (Polynomial, PolyMatrix, VarId, VarRegistry, derive, det,
                   poly_sum, rank_rational, variable_mask)
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

    The registry holds the generator variables first (canonical order) and
    then q1, p1, q2, p2, ..., so invariants built here substitute directly.
    """

    def __init__(self, n: int, N: int, alpha_rows=None, alpha_seed=None):
        if N < 1:
            raise ValueError("at least one degree of freedom is required")
        registry = VarRegistry()
        self.algebra = build_gn(n, registry=registry)
        self.n = n
        self.N = N
        self.registry = registry
        self._q: list[VarId] = []
        self._p: list[VarId] = []
        for k in range(1, N + 1):
            self._q.append(registry.add(f"q{k}"))
            self._p.append(registry.add(f"p{k}"))
        self._phase_mask = variable_mask(v.index for v in self._q + self._p)
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
        self.alpha_seed = alpha_seed
        self._casimir: Polynomial | None = None
        # memoised window images by (side, m) and integrals by side
        self._images: dict[tuple[str, int], dict[VarId, Polynomial]] = {}
        self._integrals: dict[str, dict[int, Polynomial]] = {}

    @classmethod
    def seeded(cls, n: int, N: int, alpha_seed: int = 1) -> "PhaseContext":
        """Deterministic nonzero integer parameters in [-9, 9] drawn from
        the seed; the seed is recorded for echoing in reports."""
        rng = random.Random(alpha_seed)
        rows = {i: [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
                    for _ in range(N)]
                for i in range(1, n - 1)}
        return cls(n, N, rows, alpha_seed=alpha_seed)

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
        return tuple(self._q) + tuple(self._p)

    def check_phase(self, f: Polynomial) -> None:
        """Raise ValueError unless `f` is a polynomial in this context's q
        and p variables only."""
        if f.registry is not self.registry:
            raise ValueError("polynomial belongs to a different context")
        foreign = f.support_outside(self._phase_mask)
        if foreign:
            names = ", ".join(sorted(self.registry.name_of(i) for i in foreign))
            raise ValueError(f"non-phase variables present: {names}")

    @property
    def casimir_polynomial(self) -> Polynomial:
        if self._casimir is None:
            self._casimir = casimir(self.n, self.algebra).polynomial
        return self._casimir

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
        (side, m) and shared between callers, which must not mutate it."""
        m = self.N if m is None else m
        images = self._images.get((side, m))
        if images is None:
            a, b = window(side, m, self.N)
            images = self._images[(side, m)] = {
                self.algebra.basis.var(g): self._image(g, range(a, b + 1))
                for g in self.algebra.basis.order}
        return images

    def realize_poly(self, f: Polynomial, side: str = "left",
                     m: int | None = None) -> Polynomial:
        """Realize a polynomial in generator variables over a site window."""
        return f.substitute(self.realization_images(side, m))


def harmonic_hamiltonian(ctx: PhaseContext, omega: Fraction | int = 1) -> Polynomial:
    """Realisation of x+ - omega^2 x-: the N-dimensional oscillator."""
    w2 = Fraction(omega) ** 2
    gen = ctx.algebra.basis.poly(X_PLUS) - w2 * ctx.algebra.basis.poly(X_MINUS)
    return ctx.realize_poly(gen)


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
    return ctx.casimir_polynomial.substitute(ctx.realization_images(side, m))


def building_block(ctx: PhaseContext, indices) -> Polynomial:
    """Determinant of the n x n matrix with the parameter rows on top and
    the q and p rows at the bottom, columns picked by `indices`."""
    idx = tuple(indices)
    if len(idx) != ctx.n:
        raise ValueError(f"need exactly {ctx.n} site indices")
    if any(not 1 <= k <= ctx.N for k in idx) or \
            any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("site indices must be strictly increasing in [1, N]")
    reg = ctx.registry
    rows: list[list[Polynomial]] = []
    for i in range(1, ctx.n - 1):
        rows.append([reg.const(ctx.alpha(i, k)) for k in idx])
    rows.append([ctx.q(k) for k in idx])
    rows.append([ctx.p(k) for k in idx])
    return det(PolyMatrix.from_rows(rows))


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
    both sides."""
    fails: list[str] = []
    compared = 0
    for side in ("left", "right"):
        for m, via_sq in integral_set(ctx, side).items():
            compared += 1
            via_sub = integrals_via_coproduct(ctx, side, m)
            if via_sub != via_sq:
                fails.append(f"routes differ at side={side}, m={m}")
    return Report("route_equivalence",
                  {"n": ctx.n, "N": ctx.N, "windows": compared}, fails)


def check_vanishing(ctx: PhaseContext) -> Report:
    """Below the threshold window m = n the realised invariant is
    identically zero; at m = n it is not (for generic parameters)."""
    fails: list[str] = []
    for side in ("left", "right"):
        for m in range(1, min(ctx.n, ctx.N + 1)):
            p = integrals_via_coproduct(ctx, side, m)
            if not p.is_zero:
                fails.append(f"nonzero below threshold: side={side}, m={m}")
    threshold_nonzero = None
    if ctx.N >= ctx.n:
        threshold_nonzero = all(
            not integrals_via_coproduct(ctx, side, ctx.n).is_zero
            for side in ("left", "right"))
        if not threshold_nonzero:
            fails.append("vanishes at the threshold window m = n")
    return Report("vanishing",
                  {"n": ctx.n, "N": ctx.N,
                   "threshold_nonzero": threshold_nonzero}, fails)


def check_involution(ctx: PhaseContext) -> Report:
    """All stored integrals commute within each side, commute with every
    fully-realised generator, and the two full-window integrals coincide."""
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
    gen_count = 0
    for g in ctx.algebra.basis.order:
        d = ctx.realize(g)
        for side, iset in sets.items():
            for m, p in iset.items():
                gen_count += 1
                if not canonical_bracket(ctx, p, d).is_zero:
                    fails.append(f"{{{side} m={m}, {g.name}}} != 0")
    if sets["left"][ctx.N] != sets["right"][ctx.N]:
        fails.append("full-window integrals differ between sides")
    return Report("involution",
                  {"n": ctx.n, "N": ctx.N, "pairs": pair_count,
                   "generator_brackets": gen_count}, fails)


@dataclass(frozen=True)
class IndependenceResult:
    rank: int
    expected: int
    attempts: tuple[int, ...]
    seed: int

    @property
    def independent(self) -> bool:
        return self.rank == self.expected


def check_independence(ctx: PhaseContext, hamiltonian: Polynomial | None = None,
                       seed: int = 0, max_attempts: int = 5) -> IndependenceResult:
    """Jacobian rank of H and the `integral_family` {left m=n..N, right
    m=n..N-1} at random rational phase points, resampling on deficiency up
    to `max_attempts` times.

    The expected count is 2(N - n) + 2.
    """
    if ctx.N < ctx.n:
        raise ValueError("no integrals exist for N < n")
    H = hamiltonian if hamiltonian is not None else harmonic_hamiltonian(ctx)
    members = [H, *integral_family(ctx).values()]
    expected = 2 * (ctx.N - ctx.n) + 2
    state = ctx.state_vars()
    grads = [[f.partial(v) for v in state] for f in members]
    rng = random.Random(seed)
    attempts: list[int] = []
    r = 0
    for _ in range(max_attempts):
        point = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for v in state}
        r = rank_rational({j: g.eval(point) for j, g in enumerate(row)}
                          for row in grads)
        attempts.append(r)
        if r == expected:
            break
    return IndependenceResult(rank=r, expected=expected,
                              attempts=tuple(attempts), seed=seed)
