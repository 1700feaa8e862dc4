"""The determinant invariant of each level and its machine verification.

Level n carries a symmetric n x n matrix over the generator variables:
the central block z_{i,j} in the top-left (n-2) x (n-2) corner, bordered
by the ladder columns (-y_{i,-}, y_{i,+}) and the 2 x 2 corner
[[-2 x-, h], [h, 2 x+]].  Minus its determinant is a degree-n polynomial
C_n that every coadjoint field annihilates, i.e. a Casimir invariant.

Two independent routes establish it: a certificate resting on the
entrywise identity  X_g(M) = -(Q_g M + M Q_g^T)  between each coadjoint
field X_g and the quotient matrix representation Q, and a linear-ansatz
solver that finds all invariant polynomials of a fixed degree from scratch
(acceptance test 06 and tests/test_casimir.py run it at degree n, where
it re-derives C_n).  `verify` sweeps below degree n only, where a rank
modulo a prime certifies that the invariants are the central polynomials
and the solver runs only where that rank falls short.

The bracket preserves a Z x Z^{n-2} grading: the h-weight (+-2 on x+-,
+-1 on y_{i,+-}, 0 on h and z) and the ladder multidegree (e_i on
y_{i,+-}, e_i + e_j on z_{i,j}).  `check_grading` verifies that every
structure constant is homogeneous of the summed grade, and the ansatz
solver relies on it: each coadjoint field maps one grade block of
monomials into another, and the h field multiplies a monomial by its
weight, so the invariants are found block by block over the weight-0
monomials alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat

from .algebra import (Generator, GnAlgebra, H, X_MINUS, X_PLUS,
                      canonical_order, central, triangular, y_minus, y_plus)
from .poly import (BudgetExceeded, Polynomial, _check_degree, _degrees, det,
                   exponents, monomial, poly_sum, rank_mod_p, rank_rational,
                   sparse_nullspace, variable_mask)
from .representations import build_coadjoint, build_quotient_rep
from .reports import Report


# Most weight-0 degree-d monomials `solve_ansatz` takes as columns by default.
ANSATZ_BUDGET = 100_000

# The h-weight of each generator kind; h and the central z have weight 0.
_H_WEIGHT = {"xp": 2, "xm": -2, "yp": 1, "ym": -1}

# Highest level `casimir` expands.  C_10 already has 1,436,714 terms and
# takes about 0.5 GB, and each level has about 9.4 times the terms of the
# one below, so C_11 would exhaust memory.
MAX_CASIMIR_N = 10


# A polynomial matrix, as its rows
Rows = tuple[tuple[Polynomial, ...], ...]


def casimir_matrix(alg: GnAlgebra) -> Rows:
    """The symmetric bordered matrix M_n whose determinant carries the
    invariant, as a tuple of its n rows."""
    n = alg.n
    P = alg.basis.poly
    ladder = range(1, n - 1)
    rows = [(*(P(central(i, j)) for j in ladder), -P(y_minus(i)),
             P(y_plus(i))) for i in ladder]
    rows.append((*(-P(y_minus(j)) for j in ladder), -2 * P(X_MINUS), P(H)))
    rows.append((*(P(y_plus(j)) for j in ladder), P(H), 2 * P(X_PLUS)))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class CasimirResult:
    """C_n and its matrix M: `polynomial` is -det M, computed from M."""
    algebra: GnAlgebra
    matrix: Rows
    polynomial: Polynomial = field(init=False)
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        # -det M, by negating the first row: no pass over the terms
        c = det([[-e for e in self.matrix[0]], *self.matrix[1:]])
        object.__setattr__(self, "polynomial", c)
        object.__setattr__(self, "degree", c.total_degree())

    @cached_property
    def intertwining_failures(self) -> tuple[str, ...]:
        """One failure per generator g for which X_g(M_ij), X_g its coadjoint
        field, differs from -(Q_g M + M Q_g^T)_ij, Q_g its quotient image."""
        m, alg = self.matrix, self.algebra
        rep = build_quotient_rep(alg)
        fails: list[str] = []
        for f in build_coadjoint(alg):
            # the nonzero entries of each row of Q_g as (column, -value)
            q = [[(k, -v) for k, v in enumerate(row) if v]
                 for row in rep.of(f.source)]
            for i, j in product(range(alg.n), repeat=2):
                rhs = poly_sum(alg.registry, [m[k][j] * c for k, c in q[i]]
                               + [m[i][k] * c for k, c in q[j]])
                if f.apply(m[i][j]) != rhs:
                    fails.append(f"intertwining fails for {f.source.name}")
                    break
        return tuple(fails)


def check_casimir_level(n: int) -> None:
    """Raise BudgetExceeded for a level above `MAX_CASIMIR_N`."""
    if n > MAX_CASIMIR_N:
        raise BudgetExceeded(
            f"C_{n} is too large to expand: levels above {MAX_CASIMIR_N} "
            f"are refused (C_{MAX_CASIMIR_N} already has 1,436,714 terms, "
            f"and each level has about 9.4 times the terms of the one below)")


def casimir(alg: GnAlgebra) -> CasimirResult:
    """C_n = -det of the bordered matrix; homogeneous of degree n.  Levels
    above `MAX_CASIMIR_N` raise BudgetExceeded before any expansion."""
    check_casimir_level(alg.n)
    return CasimirResult(alg, casimir_matrix(alg))


def generating_set(alg: GnAlgebra) -> list[Generator]:
    """x+, x- and the y_{i,-}, checked to generate g_n: every generator
    must be reached, and one is reached when it is a nonzero multiple of
    the bracket of two reached ones (ValueError names those not reached)."""
    sources = [X_PLUS, X_MINUS, *map(y_minus, range(1, alg.n - 1))]
    brackets = alg.constants.brackets
    reached: set[int] = set()
    new = set(map(alg.basis.index, sources))
    while new:
        reached |= new
        new = {next(iter(t)) for a in reached for b, t in brackets[a].items()
               if b in reached and len(t) == 1} - reached
    missing = [g.name for k, g in enumerate(alg.basis.order)
               if k not in reached]
    if missing:
        raise ValueError(f"the chosen generators do not generate g_{alg.n}: "
                         f"{', '.join(missing)} not reached")
    return sources


def verify_annihilation(cas: CasimirResult) -> Report:
    """All T_n coadjoint fields send C_n to zero, certified without
    applying any to C_n.  A field X_g is a derivation, so Jacobi's formula
    gives X_g(det M) = tr(adj M X_g(M)), X_g acting entrywise.  Where
    X_g(M) = -(Q_g M + M Q_g^T), as adj M M = M adj M = (det M) 1, the
    traces tr(adj M Q_g M) and tr(adj M M Q_g^T) are both tr(Q_g) det M,
    so X_g(det M) = -2 tr(Q_g) det M.  C_n = -det M by construction, and
    the report checks the other premises: that identity, a traceless Q_g."""
    alg, c = cas.algebra, cas.polynomial
    quotient = build_quotient_rep(alg)
    fails = list(cas.intertwining_failures)
    for g in alg.basis.order:
        trace = sum(row[i] for i, row in enumerate(quotient.of(g)))
        if trace:
            fails.append(f"quotient image of {g.name} has trace {trace}")
    return Report("annihilation", {"n": alg.n, "fields": alg.basis.dim,
                                   "terms": len(c.terms)}, fails)


def verify_intertwining(cas: CasimirResult) -> Report:
    """Entrywise field action on M equals -(Q M + M Q^T) for the quotient
    representation Q: the identity `verify_annihilation` rests on."""
    alg = cas.algebra
    return Report("intertwining", {"n": alg.n, "generators": alg.basis.dim},
                  list(cas.intertwining_failures))


def _grading(alg: GnAlgebra) -> dict[int, tuple[int, ...]]:
    """The grade of each generator variable, keyed by registry index, which
    is the basis position: its h-weight followed by its ladder multidegree
    in Z^{n-2}.  A monomial's grade is the exponent-weighted sum of its
    variables' grades."""
    out: dict[int, tuple[int, ...]] = {}
    for k, g in enumerate(alg.basis.order):
        ladder = [0] * (alg.n - 2)
        if g.kind in ("ym", "yp"):
            ladder[g.i - 1] += 1
        elif g.kind == "z":
            ladder[g.i - 1] += 1
            ladder[g.j - 1] += 1
        out[k] = (_H_WEIGHT.get(g.kind, 0), *ladder)
    return out


def check_grading(cas: CasimirResult) -> Report:
    """Every nonzero bracket [a, b] of generators is homogeneous of grade
    grade(a) + grade(b), and C_n is homogeneous of degree n with every
    monomial of h-weight zero."""
    alg, c, n = cas.algebra, cas.polynomial, cas.algebra.n
    grade = _grading(alg)
    order = alg.basis.order
    fails: list[str] = []
    for a, row in enumerate(alg.constants.brackets):
        for b in sorted(row):
            want = tuple(map(sum, zip(grade[a], grade[b])))
            if any(grade[k] != want for k in row[b]):
                fails.append(f"[{order[a].name},{order[b].name}] "
                             f"is not of grade {want}")
    # a monomial's h-weight: sum over w of w times its degree in the
    # variables of weight w, each read with `_degrees` through a mask
    by_weight: dict[int, list[int]] = {}
    for i, g in grade.items():
        if g[0]:
            by_weight.setdefault(g[0], []).append(i)
    monos = list(c.terms)
    weights = [0] * len(monos)
    for w, idx in by_weight.items():
        part = _degrees(map(operator.and_, monos, repeat(variable_mask(idx))))
        weights = [x + w * d for x, d in zip(weights, part)]
    for deg, w in zip(_degrees(monos), weights):
        if deg != n:
            fails.append(f"monomial of degree {deg} present")
        if w:
            fails.append(f"monomial with weight {w} present")
    return Report("grading", {"n": n, "terms": len(c.terms)}, fails)


def _weight_zero_blocks(alg: GnAlgebra,
                        grading: dict[int, tuple[int, ...]],
                        degree: int) -> dict[int, list[tuple[int, int]]]:
    """The degree-d monomials of h-weight 0, numbered in the order
    `combinations_with_replacement` gives over the canonical generators
    and grouped by ladder multidegree (packed into one int, 16 bits per
    index): {ladder: [(column, monomial), ...]}.  A variable's h-weight is
    at most 2 in size, so a partial product whose weight exceeds twice the
    remaining degree is pruned."""
    units = [(monomial({v.index: 1}), grading[v.index][0],
              sum(e << (16 * k) for k, e in enumerate(grading[v.index][1:])))
             for v in map(alg.basis.var, alg.basis.order)]
    blocks: dict[int, list[tuple[int, int]]] = {}
    col = 0

    def extend(start: int, left: int, mono: int, weight: int,
               ladder: int) -> None:
        nonlocal col
        if not left:
            blocks.setdefault(ladder, []).append((col, mono))
            col += 1
            return
        left -= 1
        for k in range(start, len(units)):
            unit, w, g = units[k]
            if abs(weight + w) <= 2 * left:
                extend(k, left, mono + unit, weight + w, ladder + g)

    extend(0, degree, 0, 0, 0)
    return blocks


@dataclass(frozen=True, eq=False)
class AnsatzSolution:
    degree: int
    monomials: int
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _weight_zero_count(n: int, degree: int) -> int:
    """The number of degree-`degree` monomials of h-weight 0 in the
    generators of g_n, the columns `solve_ansatz` builds, counted without
    building them: ways[s][w] counts the monomials of degree s and h-weight
    w in the generators taken so far, and each generator in turn may add
    any power of itself."""
    ways: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(degree)]
    for g in canonical_order(n):
        w = _H_WEIGHT.get(g.kind, 0)
        for s in range(1, degree + 1):
            for x, c in ways[s - 1].items():
                ways[s][x + w] = ways[s].get(x + w, 0) + c
    return ways[degree].get(0, 0)


def ansatz_monomials(n: int, degree: int,
                     budget: int = ANSATZ_BUDGET) -> int:
    """The number of degree-`degree` monomials in the T_n generators of
    g_n.  A degree below 1 raises ValueError, and more than `budget` of
    them with h-weight 0 (the columns the ansatz builds) BudgetExceeded,
    before anything is built."""
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    columns = _weight_zero_count(n, degree)
    if columns > budget:
        raise BudgetExceeded(
            f"{columns} weight-0 monomials of degree {degree} exceed the "
            f"budget {budget}")
    return math.comb(triangular(n) + degree - 1, degree)


def _ansatz_blocks(alg: GnAlgebra, degree: int):
    """The degree-d ansatz system, one weight-0 block at a time: each block
    of (column, monomial) pairs (`_weight_zero_blocks`) with its equations
    as sparse rows over the block's positions, sorted by (field position,
    produced monomial).  The rows come from the fields of `generating_set`
    (see `solve_ansatz`)."""
    sources = generating_set(alg)
    fields = [f for f in build_coadjoint(alg) if f.source in sources]
    _check_degree(degree - 1 + max(f.degree for f in fields), "a derivation")
    # variable v -> (field position, u - v, k) for each term k*u of the
    # field's coefficient on v: a column m with exponent e on v adds e*k
    # at row (field, m - v + u)
    table: dict[int, list[tuple[int, int, int | Fraction]]] = {}
    for fi, f in enumerate(fields):
        for i, a in f.terms.items():
            table.setdefault(i, []).extend(
                (fi, u - monomial({i: 1}), k) for u, k in a.items())
    for block in _weight_zero_blocks(alg, _grading(alg), degree).values():
        # rows keyed by (field position, produced monomial): one equation
        rows: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for j, (_, mono) in enumerate(block):
            for i, e in exponents(mono):
                for fi, shift, k in table.get(i, ()):
                    row = rows.setdefault((fi, mono + shift), {})
                    row[j] = row.get(j, 0) + e * k
        yield block, [rows[k] for k in sorted(rows)]


def solve_ansatz(alg: GnAlgebra, degree: int,
                 budget: int = ANSATZ_BUDGET) -> AnsatzSolution:
    """All polynomials of the exact given degree killed by every coadjoint
    field, found by exact sparse linear algebra over the monomial basis.

    The rows come from the n fields of `generating_set` alone, and since
    X_[a,b] = [X_a, X_b] the fields that kill a polynomial form a
    subalgebra, so killing these n is killing all.

    Columns are the degree-d monomials in `combinations_with_replacement`
    order over the canonical generators.  The fields preserve the grading,
    so the system splits into one block per grade; a column of nonzero
    h-weight is a pivot (the h field scales it by its weight), so only the
    weight-0 monomials are enumerated and only their blocks are solved
    (`_ansatz_blocks`).  Reduced-echelon pivots are the columns independent
    of those to their left, so the union of the block bases, ordered by
    free column, is the reduced-echelon basis of the whole system.
    `monomials` counts every degree-d monomial.
    """
    count = ansatz_monomials(alg.n, degree, budget)
    reg = alg.registry
    found: list[tuple[int, Polynomial]] = []
    for block, rows in _ansatz_blocks(alg, degree):
        for vec in sparse_nullspace(rows, ncols=len(block)):
            found.append((block[max(vec)][0], Polynomial(
                reg, {block[j][1]: v for j, v in vec.items()})))
    found.sort(key=lambda item: item[0])
    return AnsatzSolution(degree=degree, monomials=count,
                          basis=tuple(p for _, p in found))


def _central_kernel(alg: GnAlgebra, degree: int) -> int | None:
    """The dimension of the degree-d invariants where a rank modulo a prime
    certifies that they are exactly the central polynomials of degree d,
    else None.

    No coadjoint field has a coefficient on a central variable, so every
    monomial in the central variables alone is a zero column of its block.
    Where the block's rank modulo `PRIME` (`rank_mod_p`, at most the exact
    rank) equals its count of other columns, those columns are
    independent, and the block's kernel is spanned by its central
    monomials.  The dimension is then the count of central monomials over
    all blocks.  The rows go shortest first, which leaves the elimination
    less fill-in, and are read only until the rank is full."""
    ansatz_monomials(alg.n, degree)
    central = set(map(alg.basis.index, alg.basis.centrals))
    if any(central.intersection(f.terms) for f in build_coadjoint(alg)):
        return None
    others = ~variable_mask(central)
    kernel = 0
    for block, rows in _ansatz_blocks(alg, degree):
        size = sum(1 for _, mono in block if mono & others)
        if rank_mod_p(sorted(rows, key=len), size) != size:
            return None
        kernel += len(block) - size
    return kernel


def check_uniqueness(cas: CasimirResult,
                     max_degree: int | None = None) -> Report:
    """Below degree n every invariant is a polynomial in the central
    variables alone, and the degree-d invariants have the dimension
    C(T_{n-2}+d-1, d) of the central degree-d monomials: the support test
    shows they lie in the central ring, the count that they fill it.
    Below degree n both follow from a rank modulo a prime
    (`_central_kernel`) where it certifies them; where it falls short,
    and at degree n (when swept), `solve_ansatz` finds the invariants
    exactly.  At degree n the solution space contains C_n and has one
    dimension more."""
    alg, n = cas.algebra, cas.algebra.n
    if max_degree is None:
        max_degree = n - 1
    z_idx = set(map(alg.basis.index, alg.basis.centrals))
    centrals = triangular(n - 2)
    fails: list[str] = []
    dims: dict[str, int] = {}
    contains = None
    for degree in range(1, min(max_degree, n) + 1):
        want = math.comb(centrals + degree - 1, degree) + (degree == n)
        kernel = _central_kernel(alg, degree) if degree < n else None
        sol = None if kernel is not None else solve_ansatz(alg, degree)
        dim = kernel if sol is None else sol.dimension
        dims[str(degree)] = dim
        if dim != want:
            fails.append(f"degree-{degree} invariants have dimension "
                         f"{dim}, not {want}")
        if sol is None:
            continue
        if degree < n:
            for p in sol.basis:
                if p.support_indices() - z_idx:
                    fails.append(
                        f"degree-{degree} invariant leaves the central ring: "
                        f"{p.text()[:60]}")
        else:
            rows = [p.terms for p in sol.basis]
            contains = rank_rational(rows) == \
                rank_rational(rows + [cas.polynomial.terms])
            if not contains:
                fails.append(
                    "the degree-n invariant is outside the ansatz span")
    data = {"n": n, "max_degree": max_degree, "dimensions": dims}
    if contains is not None:
        data["contains_casimir"] = contains
    return Report("uniqueness", data, fails)
