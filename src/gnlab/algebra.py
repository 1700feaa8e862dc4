"""The triangular chain of Lie algebras and its exact structure checks.

Level n >= 2 has T(n) = n(n+1)/2 generators: a raising/lowering triple
h, x-, x+; ladder pairs y_{i,-}, y_{i,+} for i = 1..n-2; and central
elements z_{i,j} for 1 <= i <= j <= n-2.  The nonzero brackets are

    [x+, x-] = h          [h, x+-] = +-2 x+-      [h, y_{i,+-}] = +- y_{i,+-}
    [x-, y_{i,+}] = y_{i,-}          [x+, y_{i,-}] = y_{i,+}
    [y_{i,+}, y_{j,-}] = z_{min(i,j), max(i,j)}

with everything else zero.  `StructureConstants` keeps them as one sparse
table of integers indexed by basis position, the generators' places in the
canonical order, and every check here works on that table.  The bracket
extends to polynomials as the Lie-Poisson bracket
{f,g} = sum_{i,j} [x_i, x_j] (df/dx_i)(dg/dx_j); the coadjoint fields
apply it one generator at a time, and the tests keep the whole extension
as an independent oracle of these checks.

Checks (Jacobi, the nested subalgebra/ideal chain, the semidirect split
into sl2 plus a two-step nilpotent radical, the centre, and the
Beltrametti-Blasi invariant count) are exhaustive and exact; they report
failures instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .poly import (Polynomial, VarId, VarRegistry, monomial, rank_rational,
                   sparse_nullspace)
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

    @cached_property
    def _position(self) -> dict[Generator, int]:
        return {g: k for k, g in enumerate(self.order)}

    def index(self, g: Generator) -> int:
        """The basis position of `g`: its place in `order`."""
        return self._position[g]

    @property
    def ladder(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.order if g.kind in ("ym", "yp"))

    @property
    def centrals(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.order if g.kind == "z")


class StructureConstants:
    """The bracket table by basis position.  A vector {k: c} is the linear
    combination sum_k c g_k of generators; `brackets[a][b]` is the vector of
    [g_a, g_b], with integer coefficients and stored only when nonzero, so
    that a bracket missing from `brackets[a]` is zero.  Antisymmetric by
    construction."""

    def __init__(self, basis: GnBasis):
        self.basis = basis
        self.brackets: list[dict[int, dict[int, int]]] = \
            [{} for _ in basis.order]
        # the monomial of each generator variable, by basis position
        self._units = [monomial({basis.var(g).index: 1}) for g in basis.order]
        pos = basis.index

        def put(a: Generator, b: Generator, c: int, k: Generator):
            """[a, b] = c k."""
            self.brackets[pos(a)][pos(b)] = {pos(k): c}
            self.brackets[pos(b)][pos(a)] = {pos(k): -c}

        put(X_PLUS, X_MINUS, 1, H)
        put(H, X_MINUS, -2, X_MINUS)
        put(H, X_PLUS, 2, X_PLUS)
        for i in range(1, basis.n - 1):
            put(H, y_minus(i), -1, y_minus(i))
            put(H, y_plus(i), 1, y_plus(i))
            put(X_MINUS, y_plus(i), 1, y_minus(i))
            put(X_PLUS, y_minus(i), 1, y_plus(i))
            for j in range(1, basis.n - 1):
                put(y_plus(i), y_minus(j), 1, central(i, j))

    def poly(self, vector: dict[int, int]) -> Polynomial:
        """The linear polynomial of a vector."""
        return Polynomial(self.basis.registry,
                          {self._units[k]: c for k, c in vector.items()})

    def of(self, a: Generator, b: Generator) -> Polynomial:
        pos = self.basis.index
        return self.poly(self.brackets[pos(a)].get(pos(b), {}))

    def add_bracket(self, acc: dict, u: dict, v: dict) -> dict:
        """Add the bracket [u, v] of two vectors into the vector `acc`
        (zero coefficients may remain) and return `acc`."""
        for a, x in u.items():
            row = self.brackets[a]
            for b, y in v.items():
                for k, c in row.get(b, {}).items():
                    acc[k] = acc.get(k, 0) + x * y * c
        return acc


@dataclass(frozen=True, eq=False)
class GnAlgebra:
    basis: GnBasis
    constants: StructureConstants

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def registry(self) -> VarRegistry:
        return self.basis.registry


def build_gn(n: int) -> GnAlgebra:
    """Build level n of the chain over a fresh registry of its generator
    variables alone, in the canonical order: a generator's variable index
    is its basis position."""
    order = canonical_order(n)
    basis = GnBasis(n, order, VarRegistry(g.name for g in order))
    return GnAlgebra(basis, StructureConstants(basis))


# ----------------------------------------------------------------------
# Checks


def check_jacobi(alg: GnAlgebra) -> Report:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 for every basis triple."""
    sc = alg.constants
    order = alg.basis.order
    fails: list[str] = []
    count = 0
    for a, b, c in combinations(range(len(order)), 3):
        count += 1
        jac: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sc.add_bracket(jac, sc.brackets[x].get(y, {}), {z: 1})
        if any(jac.values()):
            fails.append(f"jacobiator of ({order[a].name}, {order[b].name}, "
                         f"{order[c].name}) = {sc.poly(jac)}")
    return Report("jacobi", {"n": alg.n, "triples": count}, fails)


def ideal_complement(k: int) -> tuple[Generator, ...]:
    """Generators spanning the ideal that splits level k over level k-1."""
    if k < 3:
        raise ValueError("the split exists from level 3 on")
    return (y_minus(k - 2), y_plus(k - 2)) + tuple(
        central(i, k - 2) for i in range(1, k - 1))


def check_subalgebra_chain(alg: GnAlgebra) -> Report:
    """Each lower level embeds as a subalgebra, and level k splits off an
    ideal spanned by y_{k-2,+-} and z_{*,k-2}."""
    n = alg.n
    if n < 3:
        raise ValueError("chain checks need n >= 3")
    pos = alg.basis.index
    brackets = alg.constants.brackets
    fails: list[str] = []
    sub_pairs = 0
    for k in range(2, n):
        gens_k = canonical_order(k)
        allowed = set(map(pos, gens_k))
        for a, b in combinations(gens_k, 2):
            sub_pairs += 1
            if brackets[pos(a)].get(pos(b), {}).keys() - allowed:
                fails.append(f"[{a.name},{b.name}] leaves the level-{k} span")
    ideal_pairs = 0
    for k in range(3, n + 1):
        ideal = ideal_complement(k)
        allowed = set(map(pos, ideal))
        for a in canonical_order(k):
            for b in ideal:
                ideal_pairs += 1
                if brackets[pos(a)].get(pos(b), {}).keys() - allowed:
                    fails.append(
                        f"[{a.name},{b.name}] leaves the level-{k} ideal")
    return Report("subalgebra_chain",
                  {"n": n, "subalgebra_pairs": sub_pairs,
                   "ideal_pairs": ideal_pairs}, fails)


def check_levi(alg: GnAlgebra) -> Report:
    """Semidirect split: sl2 relations on {h, x-, x+}; the y/z span is an
    ideal, brackets of radical elements land in the centre, and the radical
    is two-step nilpotent."""
    if alg.n < 3:
        raise ValueError("the split is meaningful for n >= 3")
    sc = alg.constants
    order = alg.basis.order
    h, xm, xp = map(alg.basis.index, (H, X_MINUS, X_PLUS))
    fails: list[str] = []
    if sc.brackets[xp].get(xm) != {h: 1}:
        fails.append("[x+, x-] != h")
    if sc.brackets[h].get(xp) != {xp: 2}:
        fails.append("[h, x+] != 2 x+")
    if sc.brackets[h].get(xm) != {xm: -2}:
        fails.append("[h, x-] != -2 x-")
    radical = [alg.basis.index(g)
               for g in alg.basis.ladder + alg.basis.centrals]
    rad_idx = set(radical)
    z_idx = set(map(alg.basis.index, alg.basis.centrals))
    for a in range(len(order)):
        for b in radical:
            if sc.brackets[a].get(b, {}).keys() - rad_idx:
                fails.append(
                    f"[{order[a].name},{order[b].name}] leaves the radical")
    for a, b in combinations(radical, 2):
        br = sc.brackets[a].get(b, {})
        if br.keys() - z_idx:
            fails.append(f"[{order[a].name},{order[b].name}] is not central")
        for e in radical:
            if any(sc.add_bracket({}, br, {e: 1}).values()):
                fails.append(f"[[{order[a].name},{order[b].name}],"
                             f"{order[e].name}] != 0")
    return Report("levi_split", {"n": alg.n, "radical_dim": len(radical)},
                  fails)


def compute_centre(alg: GnAlgebra) -> list[dict[int, Fraction]]:
    """Sparse coefficient vectors {basis position: coeff}, positions in
    canonical basis order, spanning the centre: the v with
    sum_i v_i [g_i, g_j] = 0 for every j, one equation per j and per
    generator g_k, on the coefficients of g_k."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, row in enumerate(alg.constants.brackets):
        for j, br in row.items():
            for k, c in br.items():
                rows.setdefault((j, k), {})[i] = c
    return sparse_nullspace(rows.values(), alg.basis.dim)


@dataclass(frozen=True)
class InvariantCount:
    """Beltrametti-Blasi data: the commutator rank, an upper bound for it
    (the rank is certified when the two are equal) and the number
    nu = dim - rank of independent invariants."""
    rank: int
    rank_upper_bound: int
    nu: int


def beltrametti_blasi(alg: GnAlgebra) -> InvariantCount:
    """Invariant count via the rank of the commutator matrix
    A_{ab} = [g_a, g_b] over the field of rational functions, bounded from
    both sides.

    Lower bound: the exact rank of A specialised at y = 0,
    z_{i,j} = delta_{ij}, h = x- = x+ = 1, since a specialisation can only
    lose rank.  The entries are structure constants, linear in the
    generators, so each specialises term by term.  Upper bound: the rank
    of an antisymmetric matrix is even, and identically zero rows (the
    central generators) add nothing, so with r nonzero rows it is at most
    r - r mod 2 (r alone if A were not antisymmetric).
    """
    brackets = alg.constants.brackets
    # the value of each generator at the point, by basis position
    point = []
    for g in alg.basis.order:
        if g.kind == "z":
            point.append(1 if g.i == g.j else 0)
        else:
            point.append(0 if g.kind in ("ym", "yp") else 1)
    lower = rank_rational(
        {b: sum(c * point[k] for k, c in br.items()) for b, br in row.items()}
        for row in brackets)
    antisymmetric = all(
        brackets[b].get(a, {}) == {k: -c for k, c in br.items()}
        for a, row in enumerate(brackets) for b, br in row.items())
    nonzero = sum(any(row.values()) for row in brackets)
    upper = nonzero - nonzero % 2 if antisymmetric else nonzero
    return InvariantCount(rank=lower, rank_upper_bound=upper,
                          nu=alg.basis.dim - lower)


def check_structure(alg: GnAlgebra) -> Report:
    """Aggregate structural summary used by the CLI verifier."""
    n = alg.n
    fails: list[str] = []
    centre = compute_centre(alg)
    z_positions = {alg.basis.index(g) for g in alg.basis.centrals}
    expected_dim = triangular(n - 2)
    if len(centre) != expected_dim:
        fails.append(f"centre dimension {len(centre)} != {expected_dim}")
    for vec in centre:
        if vec.keys() - z_positions:
            fails.append("centre vector leaves the central span")
    bb = beltrametti_blasi(alg)
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

