"""The triangular chain of Lie algebras and its exact structure checks.

Level n >= 2 has T(n) = n(n+1)/2 generators: a raising/lowering triple
h, x-, x+; ladder pairs y_{i,-}, y_{i,+} for i = 1..n-2; and central
elements z_{i,j} for 1 <= i <= j <= n-2.  The nonzero brackets are

    [x+, x-] = h          [h, x+-] = +-2 x+-      [h, y_{i,+-}] = +- y_{i,+-}
    [x-, y_{i,+}] = y_{i,-}          [x+, y_{i,-}] = y_{i,+}
    [y_{i,+}, y_{j,-}] = z_{min(i,j), max(i,j)}

with everything else zero.  The bracket extends to polynomials as the
Lie-Poisson bracket {f,g} = sum_{i,j} [x_i, x_j] (df/dx_i)(dg/dx_j).

Checks (Jacobi, the nested subalgebra/ideal chain, the semidirect split
into sl2 plus a two-step nilpotent radical, the centre, and the
Beltrametti-Blasi invariant count) are exhaustive and exact; they report
failures instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .poly import (Polynomial, PolyMatrix, VarId, VarRegistry, monomial,
                   poly_sum, rank_rational, sparse_nullspace, variable_mask)
from .reports import Report

_KINDS = ("h", "xm", "xp", "ym", "yp", "z")


@dataclass(frozen=True)
class Generator:
    kind: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("h", "xm", "xp") and (self.i or self.j):
            raise ValueError(f"{self.kind} takes no indices")
        if self.kind in ("ym", "yp") and (self.i < 1 or self.j):
            raise ValueError("ladder generators take a single index >= 1")
        if self.kind == "z" and not (1 <= self.i <= self.j):
            raise ValueError("central indices must satisfy 1 <= i <= j")

    @property
    def name(self) -> str:
        if self.kind in ("h", "xm", "xp"):
            return self.kind
        if self.kind == "ym":
            return f"y{self.i}m"
        if self.kind == "yp":
            return f"y{self.i}p"
        return f"z{self.i}_{self.j}"


H = Generator("h")
X_MINUS = Generator("xm")
X_PLUS = Generator("xp")


def y_minus(i: int) -> Generator:
    return Generator("ym", i)


def y_plus(i: int) -> Generator:
    return Generator("yp", i)


def central(i: int, j: int) -> Generator:
    return Generator("z", min(i, j), max(i, j))


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2; the dimension at level k."""
    return k * (k + 1) // 2


def canonical_order(n: int) -> tuple[Generator, ...]:
    """h, x-, x+, y1-, y1+, ..., then z_{i,j} lexicographic in (i, j).

    This order is normative for every matrix and report in the package.
    """
    if n < 2:
        raise ValueError("levels start at n = 2")
    order: list[Generator] = [H, X_MINUS, X_PLUS]
    for i in range(1, n - 1):
        order.append(y_minus(i))
        order.append(y_plus(i))
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            order.append(central(i, j))
    return tuple(order)


@dataclass(frozen=True, eq=False)
class GnBasis:
    n: int
    order: tuple[Generator, ...]
    registry: VarRegistry

    @property
    def dim(self) -> int:
        return len(self.order)

    def var(self, g: Generator) -> VarId:
        return self.registry.var(g.name)

    def poly(self, g: Generator) -> Polynomial:
        return self.registry.poly(g.name)

    def index(self, g: Generator) -> int:
        return self.order.index(g)

    @property
    def ladder(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.order if g.kind in ("ym", "yp"))

    @property
    def centrals(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.order if g.kind == "z")


class StructureConstants:
    """Full bracket table on basis generators, antisymmetric by construction."""

    def __init__(self, basis: GnBasis):
        self.basis = basis
        self._zero = basis.registry.zero()
        table: dict[tuple[Generator, Generator], Polynomial] = {}

        def put(a: Generator, b: Generator, value: Polynomial):
            table[(a, b)] = value
            table[(b, a)] = -value

        P = basis.poly
        put(X_PLUS, X_MINUS, P(H))
        put(H, X_MINUS, -2 * P(X_MINUS))
        put(H, X_PLUS, 2 * P(X_PLUS))
        for i in range(1, basis.n - 1):
            put(H, y_minus(i), -P(y_minus(i)))
            put(H, y_plus(i), P(y_plus(i)))
            put(X_MINUS, y_plus(i), P(y_minus(i)))
            put(X_PLUS, y_minus(i), P(y_plus(i)))
            for j in range(1, basis.n - 1):
                if (y_plus(i), y_minus(j)) not in table:
                    put(y_plus(i), y_minus(j), P(central(i, j)))
        self._table = table

    def of(self, a: Generator, b: Generator) -> Polynomial:
        return self._table.get((a, b), self._zero)

    def coefficient(self, a: Generator, b: Generator, k: Generator) -> Fraction:
        return self.of(a, b).coefficient({k.name: 1})


@dataclass(frozen=True, eq=False)
class GnAlgebra:
    basis: GnBasis
    constants: StructureConstants
    generator_of_var: dict[int, Generator]
    # every exponent bit of the generator variables (a `variable_mask`)
    domain_mask: int

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def registry(self) -> VarRegistry:
        return self.basis.registry

    def _check_domain(self, p: Polynomial) -> None:
        """Raise unless `p` is in the generator variables."""
        if p.registry is not self.registry:
            raise ValueError("polynomial uses a different registry")
        foreign = p.support_outside(self.domain_mask)
        if foreign:
            names = ", ".join(sorted(self.registry.name_of(i) for i in foreign))
            raise ValueError(f"foreign variables present: {names}")

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """Lie-Poisson bracket of two polynomials in generator variables."""
        self._check_domain(f)
        self._check_domain(g)
        fsup = sorted(f.support_indices())
        gsup = sorted(g.support_indices())
        products = []
        gparts = {j: g.partial(self.registry.var_ids[j]) for j in gsup}
        for i in fsup:
            dfi = f.partial(self.registry.var_ids[i])
            if dfi.is_zero:
                continue
            gi = self.generator_of_var[i]
            for j in gsup:
                t = self.constants.of(gi, self.generator_of_var[j])
                if t.is_zero:
                    continue
                dgj = gparts[j]
                if dgj.is_zero:
                    continue
                products.append(t * dfi * dgj)
        return poly_sum(self.registry, products)


def build_gn(n: int, registry: VarRegistry | None = None) -> GnAlgebra:
    """Build level n of the chain; registers its variables in `registry`
    (a fresh one when omitted) in the canonical order."""
    order = canonical_order(n)
    reg = registry if registry is not None else VarRegistry()
    gen_of_var: dict[int, Generator] = {}
    for g in order:
        vid = reg.add(g.name)
        gen_of_var[vid.index] = g
    basis = GnBasis(n, order, reg)
    return GnAlgebra(basis, StructureConstants(basis), gen_of_var,
                     variable_mask(gen_of_var))


# ----------------------------------------------------------------------
# Checks


def check_jacobi(n: int, algebra: GnAlgebra | None = None) -> Report:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 for every basis triple."""
    alg = algebra or build_gn(n)
    P = alg.basis.poly
    fails: list[str] = []
    count = 0
    for a, b, c in combinations(alg.basis.order, 3):
        count += 1
        pa, pb, pc = P(a), P(b), P(c)
        jac = (alg.bracket(alg.bracket(pa, pb), pc)
               + alg.bracket(alg.bracket(pb, pc), pa)
               + alg.bracket(alg.bracket(pc, pa), pb))
        if not jac.is_zero:
            fails.append(f"jacobiator of ({a.name}, {b.name}, {c.name}) = {jac}")
    return Report("jacobi", {"n": n, "triples": count}, fails)


def _span_indices(alg: GnAlgebra, gens) -> frozenset[int]:
    return frozenset(alg.basis.var(g).index for g in gens)


def ideal_complement(k: int) -> tuple[Generator, ...]:
    """Generators spanning the ideal that splits level k over level k-1."""
    if k < 3:
        raise ValueError("the split exists from level 3 on")
    return (y_minus(k - 2), y_plus(k - 2)) + tuple(
        central(i, k - 2) for i in range(1, k - 1))


def check_subalgebra_chain(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Each lower level embeds as a subalgebra, and level k splits off an
    ideal spanned by y_{k-2,+-} and z_{*,k-2}."""
    if n < 3:
        raise ValueError("chain checks need n >= 3")
    alg = algebra or build_gn(n)
    P = alg.basis.poly
    fails: list[str] = []
    sub_pairs = 0
    for k in range(2, n):
        gens_k = canonical_order(k)
        allowed = _span_indices(alg, gens_k)
        for a, b in combinations(gens_k, 2):
            sub_pairs += 1
            br = alg.bracket(P(a), P(b))
            if br.support_indices() - allowed:
                fails.append(f"[{a.name},{b.name}] leaves the level-{k} span")
    ideal_pairs = 0
    for k in range(3, n + 1):
        ideal = ideal_complement(k)
        allowed = _span_indices(alg, ideal)
        for a in canonical_order(k):
            for b in ideal:
                ideal_pairs += 1
                br = alg.bracket(P(a), P(b))
                if br.support_indices() - allowed:
                    fails.append(
                        f"[{a.name},{b.name}] leaves the level-{k} ideal")
    return Report("subalgebra_chain",
                  {"n": n, "subalgebra_pairs": sub_pairs,
                   "ideal_pairs": ideal_pairs}, fails)


def check_levi(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Semidirect split: sl2 relations on {h, x-, x+}; the y/z span is an
    ideal, brackets of radical elements land in the centre, and the radical
    is two-step nilpotent."""
    if n < 3:
        raise ValueError("the split is meaningful for n >= 3")
    alg = algebra or build_gn(n)
    P = alg.basis.poly
    c = alg.constants
    fails: list[str] = []
    if c.of(X_PLUS, X_MINUS) != P(H):
        fails.append("[x+, x-] != h")
    if c.of(H, X_PLUS) != 2 * P(X_PLUS):
        fails.append("[h, x+] != 2 x+")
    if c.of(H, X_MINUS) != -2 * P(X_MINUS):
        fails.append("[h, x-] != -2 x-")
    radical = alg.basis.ladder + alg.basis.centrals
    rad_idx = _span_indices(alg, radical)
    z_idx = _span_indices(alg, alg.basis.centrals)
    for a in alg.basis.order:
        for b in radical:
            br = alg.bracket(P(a), P(b))
            if br.support_indices() - rad_idx:
                fails.append(f"[{a.name},{b.name}] leaves the radical")
    for a, b in combinations(radical, 2):
        br = alg.bracket(P(a), P(b))
        if br.support_indices() - z_idx:
            fails.append(f"[{a.name},{b.name}] is not central")
        for e in radical:
            if not alg.bracket(br, P(e)).is_zero:
                fails.append(f"[[{a.name},{b.name}],{e.name}] != 0")
    return Report("levi_split", {"n": n, "radical_dim": len(radical)}, fails)


def compute_centre(n: int, algebra: GnAlgebra | None = None
                   ) -> list[dict[int, Fraction]]:
    """Sparse coefficient vectors {basis position: coeff}, positions in
    canonical basis order, spanning the centre."""
    alg = algebra or build_gn(n)
    order = alg.basis.order
    rows = ({i: alg.constants.coefficient(gi, gj, gk)
             for i, gi in enumerate(order)}
            for gj in order for gk in order)
    return sparse_nullspace(rows, len(order))


def commutator_matrix(n: int, algebra: GnAlgebra | None = None) -> PolyMatrix:
    """Antisymmetric matrix of pairwise brackets, entries linear polynomials."""
    alg = algebra or build_gn(n)
    order = alg.basis.order
    return PolyMatrix.from_rows(
        [[alg.constants.of(a, b) for b in order] for a in order])


@dataclass(frozen=True)
class InvariantCount:
    """Beltrametti-Blasi data: the commutator rank, an upper bound for it
    (the rank is certified when the two are equal) and the number
    nu = dim - rank of independent invariants."""
    rank: int
    rank_upper_bound: int
    nu: int


def beltrametti_blasi(n: int, algebra: GnAlgebra | None = None
                      ) -> InvariantCount:
    """Invariant count via the rank of the commutator matrix A over the
    field of rational functions, bounded from both sides.

    Lower bound: the exact rank of A specialised at y = 0,
    z_{i,j} = delta_{ij}, h = x- = x+ = 1, since a specialisation can only
    lose rank.  The entries are structure constants, linear in the
    generators, so each specialises term by term.  Upper bound: the rank
    of an antisymmetric matrix is even, and identically zero rows (the
    central generators) add nothing, so with r nonzero rows it is at most
    r - r mod 2 (r alone if A were not antisymmetric).
    """
    alg = algebra or build_gn(n)
    A = commutator_matrix(n, alg)
    # the value of each generator at the point, keyed by its monomial
    point = {}
    for g in alg.basis.order:
        if g.kind == "z":
            v = 1 if g.i == g.j else 0
        else:
            v = 0 if g.kind in ("ym", "yp") else 1
        point[monomial({alg.basis.var(g).index: 1})] = v
    lower = rank_rational(
        {j: sum(c * point[m] for m, c in e.terms.items())
         for j, e in enumerate(A.row(i))} for i in range(A.rows))
    antisymmetric = all(A.at(i, j) == -A.at(j, i)
                        for i in range(A.rows) for j in range(i, A.cols))
    nonzero = sum(any(A.row(i)) for i in range(A.rows))
    upper = nonzero - nonzero % 2 if antisymmetric else nonzero
    return InvariantCount(rank=lower, rank_upper_bound=upper,
                          nu=alg.basis.dim - lower)


def check_structure(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Aggregate structural summary used by the CLI verifier."""
    alg = algebra or build_gn(n)
    fails: list[str] = []
    centre = compute_centre(n, alg)
    z_positions = {alg.basis.index(g) for g in alg.basis.centrals}
    expected_dim = triangular(n - 2)
    if len(centre) != expected_dim:
        fails.append(f"centre dimension {len(centre)} != {expected_dim}")
    for vec in centre:
        if vec.keys() - z_positions:
            fails.append("centre vector leaves the central span")
    bb = beltrametti_blasi(n, alg)
    if bb.rank != bb.rank_upper_bound:
        fails.append(f"commutator rank not certified: specialised rank "
                     f"{bb.rank} below the upper bound {bb.rank_upper_bound}")
    if bb.rank != 2 * (n - 1):
        fails.append(f"commutator rank {bb.rank} != {2 * (n - 1)}")
    if bb.nu != expected_dim + 1:
        fails.append(f"invariant count {bb.nu} != {expected_dim + 1}")
    return Report("structure",
                  {"n": n, "dim": alg.basis.dim, "centre_dim": len(centre),
                   "commutator_rank": bb.rank, "nu": bb.nu,
                   "rank_upper_bound": bb.rank_upper_bound}, fails)

