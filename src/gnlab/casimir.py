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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import (GnAlgebra, H, X_MINUS, X_PLUS, build_gn, central,
                      y_minus, y_plus)
from .poly import (BudgetExceeded, Polynomial, PolyMatrix, det, exponents,
                   monomial, rank_rational, sparse_nullspace)
from .representations import build_coadjoint, build_quotient_rep
from .reports import Report


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


def casimir(n: int, algebra: GnAlgebra | None = None) -> CasimirResult:
    """C_n = -det of the bordered matrix; homogeneous of degree n."""
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


def check_grading(n: int, algebra: GnAlgebra | None = None) -> Report:
    """C_n is homogeneous of degree n and every monomial has weight zero
    under the diagonal field of h (x+- carry +-2, ladder pairs +-1)."""
    alg = algebra or build_gn(n)
    c = casimir(n, alg).polynomial
    weight = {}
    for g in alg.basis.order:
        w = 0
        if g.kind == "xp":
            w = 2
        elif g.kind == "xm":
            w = -2
        elif g.kind == "yp":
            w = 1
        elif g.kind == "ym":
            w = -1
        weight[alg.basis.var(g).index] = w
    fails: list[str] = []
    for mono in c.terms:
        exps = exponents(mono)
        deg = sum(e for _, e in exps)
        if deg != n:
            fails.append(f"monomial of degree {deg} present")
        w = sum(weight[i] * e for i, e in exps)
        if w:
            fails.append(f"monomial with weight {w} present")
    return Report("grading", {"n": n, "terms": len(c.terms)}, fails)


@dataclass(frozen=True, eq=False)
class AnsatzSolution:
    n: int
    degree: int
    monomials: int
    basis: tuple[Polynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _degree_monomials(indices: list[int], degree: int) -> list[int]:
    units = [monomial({i: 1}) for i in indices]
    return [sum(combo)
            for combo in combinations_with_replacement(units, degree)]


def solve_ansatz(n: int, degree: int, algebra: GnAlgebra | None = None,
                 budget: int = 100_000) -> AnsatzSolution:
    """All polynomials of the exact given degree killed by every coadjoint
    field, found by exact sparse linear algebra over the monomial basis."""
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    alg = algebra or build_gn(n)
    nvars = alg.basis.dim
    count = math.comb(nvars + degree - 1, degree)
    if count > budget:
        raise BudgetExceeded(
            f"{count} monomials of degree {degree} exceed the budget {budget}")
    var_indices = [alg.basis.var(g).index for g in alg.basis.order]
    monos = _degree_monomials(var_indices, degree)
    reg = alg.registry
    fields = [f for f in build_coadjoint(n, alg) if not f.is_zero]
    # rows keyed by (field position, produced monomial): one linear equation
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for col, mono in enumerate(monos):
        p = Polynomial(reg, {mono: 1})
        for fi, field in enumerate(fields):
            image = field.apply(p)
            for m2, c2 in image.terms.items():
                rows.setdefault((fi, m2), {})[col] = c2
    ordered = [rows[k] for k in sorted(rows)]
    vectors = sparse_nullspace(ordered, ncols=len(monos))
    basis = tuple(
        Polynomial(reg, {monos[i]: v for i, v in enumerate(vec) if v})
        for vec in vectors)
    return AnsatzSolution(n=n, degree=degree, monomials=len(monos), basis=basis)


def check_uniqueness(n: int, max_degree: int | None = None,
                     algebra: GnAlgebra | None = None,
                     budget: int = 100_000) -> Report:
    """Below degree n every invariant is a polynomial in the central
    variables alone; at degree n (when swept) the solution space contains
    C_n, and the report states the dimension found without asserting it."""
    alg = algebra or build_gn(n)
    if max_degree is None:
        max_degree = n - 1
    z_idx = {alg.basis.var(g).index for g in alg.basis.centrals}
    fails: list[str] = []
    dims: dict[str, int] = {}
    for degree in range(1, min(max_degree, n - 1) + 1):
        sol = solve_ansatz(n, degree, alg, budget=budget)
        dims[str(degree)] = sol.dimension
        for p in sol.basis:
            if p.support_indices() - z_idx:
                fails.append(
                    f"degree-{degree} invariant leaves the central ring: "
                    f"{p.text()[:60]}")
    contains = None
    if max_degree >= n:
        sol = solve_ansatz(n, n, alg, budget=budget)
        dims[str(n)] = sol.dimension
        c = casimir(n, alg).polynomial
        all_monos: list[int] = sorted(
            {m for p in sol.basis for m in p.terms} | set(c.terms))
        base_rows = [[p.terms.get(m, Fraction(0)) for m in all_monos]
                     for p in sol.basis]
        r0 = rank_rational(base_rows)
        r1 = rank_rational(base_rows + [[c.terms.get(m, Fraction(0))
                                         for m in all_monos]])
        contains = (r0 == r1)
        if not contains:
            fails.append("the degree-n invariant is outside the ansatz span")
    data = {"n": n, "max_degree": max_degree, "dimensions": dims}
    if contains is not None:
        data["contains_casimir"] = contains
    return Report("uniqueness", data, fails)
