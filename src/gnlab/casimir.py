"""The determinant invariant of each level and its machine verification.

Level n carries a symmetric n x n matrix over the generator variables:
the central block z_{i,j} in the top-left (n-2) x (n-2) corner, bordered
by the ladder columns (-y_{i,-}, y_{i,+}) and the 2 x 2 corner
[[-2 x-, h], [h, 2 x+]].  Minus its determinant is a degree-n polynomial
C_n that every coadjoint field annihilates, i.e. a Casimir invariant.

Verification runs three independent routes: direct annihilation, the
entrywise intertwining identity  x^(M) = -(Q M + M Q^T)  against the
quotient matrix representation Q, and a linear-ansatz solver that finds
all invariant polynomials of a fixed degree from scratch.

The bracket preserves a Z x Z^{n-2} grading: the h-weight (+-2 on x+-,
+-1 on y_{i,+-}, 0 on h and z) and the ladder multidegree (e_i on
y_{i,+-}, e_i + e_j on z_{i,j}).  `check_grading` verifies that every
structure constant is homogeneous of the summed grade, and the ansatz
solver relies on it: each coadjoint field maps one grade block of
monomials into another, and the h field multiplies a monomial by its
weight, so the invariants are found block by block over the weight-0
monomials alone.  Its rows come from the n fields of x+, x- and the
y_{i,-}: these generate g_n, and because X_[a,b] = [X_a, X_b] (checked by
`check_field_homomorphism`) a polynomial they kill is killed by every
field.  `verify_annihilation` still applies all T_n fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (GnAlgebra, H, X_MINUS, X_PLUS, build_gn, central,
                      triangular, y_minus, y_plus)
from .poly import (BudgetExceeded, Polynomial, PolyMatrix, _check_degree,
                   det, exponents, monomial, rank_rational, sparse_nullspace)
from .representations import build_coadjoint, build_quotient_rep
from .reports import Report


# Most degree-d monomials `solve_ansatz` takes as columns by default.
ANSATZ_BUDGET = 100_000

# Highest level `casimir` expands.  C_10 already has 1,436,714 terms and
# takes about 1 GB, and each level has about 9.4 times the terms of the one
# below, so C_11 would exhaust memory.
MAX_CASIMIR_N = 10


def casimir_matrix(n: int, algebra: GnAlgebra | None = None) -> PolyMatrix:
    """The symmetric bordered matrix whose determinant carries the invariant."""
    alg = algebra or build_gn(n)
    P = alg.basis.poly
    rows: list[list[Polynomial]] = []
    for i in range(1, n - 1):
        row = [P(central(i, j)) for j in range(1, n - 1)]
        row.append(-P(y_minus(i)))
        row.append(P(y_plus(i)))
        rows.append(row)
    rows.append([-P(y_minus(j)) for j in range(1, n - 1)]
                + [-2 * P(X_MINUS), P(H)])
    rows.append([P(y_plus(j)) for j in range(1, n - 1)]
                + [P(H), 2 * P(X_PLUS)])
    return PolyMatrix.from_rows(rows)


@dataclass(frozen=True, eq=False)
class CasimirResult:
    n: int
    matrix: PolyMatrix
    polynomial: Polynomial
    degree: int


def check_casimir_level(n: int) -> None:
    """Raise BudgetExceeded for a level above `MAX_CASIMIR_N`."""
    if n > MAX_CASIMIR_N:
        raise BudgetExceeded(
            f"C_{n} is too large to expand: levels above {MAX_CASIMIR_N} "
            f"are refused (C_{MAX_CASIMIR_N} already has 1,436,714 terms, "
            f"and each level has about 9.4 times the terms of the one below)")


def casimir(n: int, algebra: GnAlgebra | None = None) -> CasimirResult:
    """C_n = -det of the bordered matrix; homogeneous of degree n.  Levels
    above `MAX_CASIMIR_N` raise BudgetExceeded before any expansion."""
    check_casimir_level(n)
    alg = algebra or build_gn(n)
    m = casimir_matrix(n, alg)
    c = -det(m)
    return CasimirResult(n=n, matrix=m, polynomial=c,
                         degree=c.total_degree())


def verify_annihilation(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Every coadjoint field sends C_n to zero."""
    alg = algebra or build_gn(n)
    c = casimir(n, alg).polynomial
    fails: list[str] = []
    for field in build_coadjoint(n, alg):
        r = field.apply(c)
        if not r.is_zero:
            fails.append(f"field of {field.source.name} gives {r.text()[:80]}")
    return Report("annihilation",
                  {"n": n, "fields": alg.basis.dim,
                   "terms": len(c.terms)}, fails)


def verify_intertwining(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Entrywise bracket action on the matrix equals -(Q M + M Q^T) for the
    quotient representation Q; the algebraic core of the invariance proof."""
    alg = algebra or build_gn(n)
    m = casimir_matrix(n, alg)
    quotient = build_quotient_rep(n, alg)
    fails: list[str] = []
    for g in alg.basis.order:
        pg = alg.basis.poly(g)
        lhs = m.map(lambda e: alg.bracket(pg, e) if e else e)
        q = quotient.of(g)
        rhs = -(q @ m + m @ q.transpose())
        if lhs != rhs:
            fails.append(f"intertwining fails for {g.name}")
    return Report("intertwining", {"n": n, "generators": alg.basis.dim}, fails)


def _grading(alg: GnAlgebra) -> dict[int, tuple[int, ...]]:
    """The grade of each generator variable, keyed by registry index: its
    h-weight followed by its ladder multidegree in Z^{n-2}.  A monomial's
    grade is the exponent-weighted sum of its variables' grades."""
    h_weight = {"xp": 2, "xm": -2, "yp": 1, "ym": -1}
    out: dict[int, tuple[int, ...]] = {}
    for g in alg.basis.order:
        ladder = [0] * (alg.n - 2)
        if g.kind in ("ym", "yp"):
            ladder[g.i - 1] += 1
        elif g.kind == "z":
            ladder[g.i - 1] += 1
            ladder[g.j - 1] += 1
        out[alg.basis.var(g).index] = (h_weight.get(g.kind, 0), *ladder)
    return out


def _grade_of(grading: dict[int, tuple[int, ...]], mono: int,
              width: int) -> tuple[int, ...]:
    total = [0] * width
    for i, e in exponents(mono):
        for k, v in enumerate(grading[i]):
            total[k] += e * v
    return tuple(total)


def check_grading(n: int, algebra: GnAlgebra | None = None) -> Report:
    """Every nonzero bracket [a, b] of generators is homogeneous of grade
    grade(a) + grade(b), and C_n is homogeneous of degree n with every
    monomial of h-weight zero."""
    alg = algebra or build_gn(n)
    c = casimir(n, alg).polynomial
    grading = _grading(alg)
    width = n - 1
    fails: list[str] = []
    for a, b in product(alg.basis.order, repeat=2):
        want = tuple(map(sum, zip(grading[alg.basis.var(a).index],
                                  grading[alg.basis.var(b).index])))
        for mono in alg.constants.of(a, b).terms:
            if _grade_of(grading, mono, width) != want:
                fails.append(f"[{a.name},{b.name}] is not of grade {want}")
                break
    for mono in c.terms:
        exps = exponents(mono)
        deg = sum(e for _, e in exps)
        if deg != n:
            fails.append(f"monomial of degree {deg} present")
        w = _grade_of(grading, mono, width)[0]
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
    n: int
    degree: int
    monomials: int
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def ansatz_monomials(n: int, degree: int,
                     budget: int = ANSATZ_BUDGET) -> int:
    """The number of degree-`degree` monomials in the T_n generators of
    g_n, the columns of the ansatz.  A degree below 1 raises ValueError and
    a count above `budget` BudgetExceeded, before anything is built."""
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    count = math.comb(triangular(n) + degree - 1, degree)
    if count > budget:
        raise BudgetExceeded(
            f"{count} monomials of degree {degree} exceed the budget {budget}")
    return count


def _check_generates(alg: GnAlgebra, sources: list) -> None:
    """Raise ValueError unless `sources` generate g_n: every generator must
    be reached, and one is reached when it is a single-term bracket (a
    nonzero multiple of itself) of two reached generators."""
    unit = {monomial({alg.basis.var(g).index: 1}): g for g in alg.basis.order}
    reached: set = set()
    new = set(sources)
    while new:
        reached |= new
        brackets = [alg.constants.of(a, b).terms
                    for a, b in product(reached, repeat=2)]
        new = {unit.get(next(iter(t))) for t in brackets if len(t) == 1}
        new -= reached | {None}
    missing = [g.name for g in alg.basis.order if g not in reached]
    if missing:
        raise ValueError(f"the ansatz fields do not generate g_{alg.n}: "
                         f"{', '.join(missing)} not reached")


def solve_ansatz(n: int, degree: int, algebra: GnAlgebra | None = None,
                 budget: int = ANSATZ_BUDGET) -> AnsatzSolution:
    """All polynomials of the exact given degree killed by every coadjoint
    field, found by exact sparse linear algebra over the monomial basis.

    The rows come from the n fields of x+, x- and y_{1,-}, ..., y_{n-2,-}
    alone.  These generate g_n ([x+, x-] = h, [x+, y_{i,-}] = y_{i,+},
    [y_{i,+}, y_{j,-}] = z_{i,j}; checked before solving), and since
    X_[a,b] = [X_a, X_b] the fields that kill a polynomial form a
    subalgebra, so killing these n is killing all.

    Columns are the degree-d monomials in `combinations_with_replacement`
    order over the canonical generators.  The fields preserve the grading,
    so the system splits into one block per grade; a column of nonzero
    h-weight is a pivot (the h field scales it by its weight), so only the
    weight-0 monomials are enumerated and only their blocks are solved.
    Reduced-echelon pivots are the columns independent of those to their
    left, so the union of the block bases, ordered by free column, is the
    reduced-echelon basis of the whole system.  `monomials` counts every
    degree-d monomial.
    """
    count = ansatz_monomials(n, degree, budget)
    alg = algebra or build_gn(n)
    sources = [X_PLUS, X_MINUS, *map(y_minus, range(1, n - 1))]
    _check_generates(alg, sources)
    fields = [f for f in build_coadjoint(n, alg) if f.source in sources]
    _check_degree(degree - 1 + max(f.degree for f in fields), "a derivation")
    # variable v -> (field position, u - v, k) for each term k*u of the
    # field's coefficient on v: a column m with exponent e on v adds e*k
    # at row (field, m - v + u)
    table: dict[int, list[tuple[int, int, int | Fraction]]] = {}
    for fi, f in enumerate(fields):
        for i, a in f.terms.items():
            table.setdefault(i, []).extend(
                (fi, u - monomial({i: 1}), k) for u, k in a.items())
    reg = alg.registry
    found: list[tuple[int, Polynomial]] = []
    for block in _weight_zero_blocks(alg, _grading(alg), degree).values():
        # rows keyed by (field position, produced monomial): one equation
        rows: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for j, (_, mono) in enumerate(block):
            for i, e in exponents(mono):
                for fi, shift, k in table.get(i, ()):
                    row = rows.setdefault((fi, mono + shift), {})
                    row[j] = row.get(j, 0) + e * k
        vectors = sparse_nullspace([rows[k] for k in sorted(rows)],
                                   ncols=len(block))
        for vec in vectors:
            found.append((block[max(vec)][0], Polynomial(
                reg, {block[j][1]: v for j, v in vec.items()})))
    found.sort(key=lambda item: item[0])
    return AnsatzSolution(n=n, degree=degree, monomials=count,
                          basis=tuple(p for _, p in found))


def check_uniqueness(n: int, max_degree: int | None = None,
                     algebra: GnAlgebra | None = None,
                     budget: int = ANSATZ_BUDGET) -> Report:
    """Below degree n every invariant is a polynomial in the central
    variables alone, and the degree-d invariants have the dimension
    C(T_{n-2}+d-1, d) of the central degree-d monomials: the support test
    shows they lie in the central ring, the count that they fill it.  At
    degree n (when swept) the solution space contains C_n and has one
    dimension more."""
    alg = algebra or build_gn(n)
    if max_degree is None:
        max_degree = n - 1
    z_idx = {alg.basis.var(g).index for g in alg.basis.centrals}
    centrals = triangular(n - 2)
    fails: list[str] = []
    dims: dict[str, int] = {}
    contains = None
    for degree in range(1, min(max_degree, n) + 1):
        sol = solve_ansatz(n, degree, alg, budget=budget)
        dims[str(degree)] = sol.dimension
        want = math.comb(centrals + degree - 1, degree) + (degree == n)
        if sol.dimension != want:
            fails.append(f"degree-{degree} invariants have dimension "
                         f"{sol.dimension}, not {want}")
        if degree < n:
            for p in sol.basis:
                if p.support_indices() - z_idx:
                    fails.append(
                        f"degree-{degree} invariant leaves the central ring: "
                        f"{p.text()[:60]}")
        else:
            c = casimir(n, alg).polynomial
            rows = [p.terms for p in sol.basis]
            contains = rank_rational(rows) == rank_rational(rows + [c.terms])
            if not contains:
                fails.append(
                    "the degree-n invariant is outside the ansatz span")
    data = {"n": n, "max_degree": max_degree, "dimensions": dims}
    if contains is not None:
        data["contains_casimir"] = contains
    return Report("uniqueness", data, fails)
