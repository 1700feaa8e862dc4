"""Matrix and vector-field realisations of the chain algebras.

Two matrix representations are built at level n, each image a list of
integer rows:

* a faithful traceless representation of size 2(n-1); the raising/lowering
  triple acts on rows/columns n-1, n, the ladder pairs couple those to the
  first n-2 and last n-2 slots, and each central z_{i,j} lands on the
  symmetric pair of entries (n+i, j), (n+j, i);
* its quotient of size n, which kills the centre: the only nonzero rows are
  n-1 and n, carrying (y_+ coefficients, h, x+) and (y_- coefficients, x-, -h).

The coadjoint vector fields x_i^ = sum_{j,k} c_{ij}^k x_k d/dx_j are derived
mechanically from the structure constants; a polynomial is invariant exactly
when every field annihilates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebra import Generator, GnAlgebra, build_gn
from .poly import Polynomial, VarId, derive, poly_sum, sparse_nullspace
from .reports import Report


@dataclass(frozen=True, eq=False)
class MatrixRep:
    name: str
    size: int
    image: dict[Generator, list[list[int]]]
    algebra: GnAlgebra

    def of(self, g: Generator) -> list[list[int]]:
        return self.image[g]


def _matrix(size: int, cells: dict[tuple[int, int], int]) -> list[list[int]]:
    """Integer rows from 1-based {(row, col): value} cells, other entries
    zero."""
    rows = [[0] * size for _ in range(size)]
    for (r, c), v in cells.items():
        rows[r - 1][c - 1] = v
    return rows


def build_faithful_rep(n: int, algebra: GnAlgebra | None = None) -> MatrixRep:
    alg = algebra or build_gn(n)
    size = 2 * (n - 1)
    image: dict[Generator, list[list[int]]] = {}
    for g in alg.basis.order:
        cells: dict[tuple[int, int], int] = {}

        def add(r: int, c: int, v: int):
            cells[(r, c)] = cells.get((r, c), 0) + v

        if g.kind == "h":
            add(n - 1, n - 1, 1)
            add(n, n, -1)
        elif g.kind == "xp":
            add(n - 1, n, 1)
        elif g.kind == "xm":
            add(n, n - 1, 1)
        elif g.kind == "yp":
            add(n - 1, g.i, 1)
            add(n + g.i, n, 1)
        elif g.kind == "ym":
            add(n, g.i, 1)
            add(n + g.i, n - 1, -1)
        else:  # central z_{i,j}
            add(g.i + n, g.j, 1)
            add(g.j + n, g.i, 1)
        image[g] = _matrix(size, cells)
    return MatrixRep("faithful", size, image, alg)


def build_quotient_rep(n: int, algebra: GnAlgebra | None = None) -> MatrixRep:
    alg = algebra or build_gn(n)
    size = n
    image: dict[Generator, list[list[int]]] = {}
    for g in alg.basis.order:
        cells: dict[tuple[int, int], int] = {}
        if g.kind == "h":
            cells = {(n - 1, n - 1): 1, (n, n): -1}
        elif g.kind == "xp":
            cells = {(n - 1, n): 1}
        elif g.kind == "xm":
            cells = {(n, n - 1): 1}
        elif g.kind == "yp":
            cells = {(n - 1, g.i): 1}
        elif g.kind == "ym":
            cells = {(n, g.i): 1}
        image[g] = _matrix(size, cells)
    return MatrixRep("quotient", size, image, alg)


def _bracket_parts(alg: GnAlgebra, a: Generator,
                   b: Generator) -> list[tuple[Generator, Fraction]]:
    """The generators g with a nonzero coefficient c in [a, b], as (g, c)
    in canonical order."""
    br = alg.constants.of(a, b)
    return [(g, c) for g in alg.basis.order
            if (c := br.coefficient({g.name: 1}))]


def _add_product(acc: dict, a: list[dict], b: list[dict], scale) -> None:
    """Add scale * (a @ b) into `acc` ({(row, col): value}), for matrices
    given as one {col: value} dict of nonzero entries per row."""
    get = acc.get
    for i, row in enumerate(a):
        for k, x in row.items():
            for j, y in b[k].items():
                acc[i, j] = get((i, j), 0) + scale * x * y


def check_homomorphism(rep: MatrixRep, n: int,
                       algebra: GnAlgebra | None = None) -> Report:
    """Pairwise commutator test plus kernel extraction.

    Each image is read once as a sparse matrix of its nonzero entries,
    and [rho(a), rho(b)] - sum c rho(g) is accumulated entry by entry.
    The kernel of the linear map generator -> matrix is computed exactly;
    the report records its dimension and whether it sits inside the centre.
    """
    alg = algebra or rep.algebra
    order = alg.basis.order
    mats = [rep.of(g) for g in order]
    sparse = {g: [{j: v for j, v in enumerate(row) if v} for row in m]
              for g, m in zip(order, mats)}
    identity = [{i: 1} for i in range(rep.size)]
    fails: list[str] = []
    pairs = 0
    for a, b in combinations(order, 2):
        pairs += 1
        diff: dict = {}
        _add_product(diff, sparse[a], sparse[b], 1)
        _add_product(diff, sparse[b], sparse[a], -1)
        for g, c in _bracket_parts(alg, a, b):
            _add_product(diff, sparse[g], identity, -c)
        if any(diff.values()):
            fails.append(f"commutator mismatch on ({a.name}, {b.name})")
    for g, m in zip(order, mats):
        tr = sum(m[i][i] for i in range(rep.size))
        if tr:
            fails.append(f"image of {g.name} has trace {tr}")
    rows = ({j: m[r][c] for j, m in enumerate(mats)}
            for r in range(rep.size) for c in range(rep.size))
    kernel = sparse_nullspace(rows, len(order))
    z_positions = {alg.basis.index(g) for g in alg.basis.centrals}
    in_centre = all(not (vec.keys() - z_positions) for vec in kernel)
    return Report(f"{rep.name}_representation",
                  {"n": n, "size": rep.size, "pairs": pairs,
                   "kernel_dim": len(kernel), "kernel_in_centre": in_centre},
                  fails)


@dataclass(frozen=True, eq=False)
class CoadjointField:
    """Derivation sum coeffs[v] d/dv attached to one source generator.

    `terms` and `degree` are the field as `derive` takes it: the term dict
    of each coefficient by variable index, and their largest degree."""
    source: Generator
    coeffs: dict[VarId, Polynomial]
    algebra: GnAlgebra
    terms: dict[int, dict] = field(init=False, repr=False)
    degree: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", {v.index: c.terms
                                           for v, c in self.coeffs.items()})
        object.__setattr__(self, "degree", max(
            (c.total_degree() for c in self.coeffs.values()), default=0))

    def coefficient_of(self, v: VarId) -> Polynomial:
        return self.coeffs.get(v, self.algebra.registry.zero())

    def apply(self, p: Polynomial) -> Polynomial:
        self.algebra._check_domain(p)
        return Polynomial(p.registry, derive(p.terms, p.total_degree(),
                                             self.terms, self.degree))


def build_coadjoint(n: int,
                    algebra: GnAlgebra | None = None) -> tuple[CoadjointField, ...]:
    """One vector field per generator, in canonical order; central
    generators yield the zero field."""
    alg = algebra or build_gn(n)
    fields = []
    for g in alg.basis.order:
        coeffs: dict[VarId, Polynomial] = {}
        for g2 in alg.basis.order:
            t = alg.constants.of(g, g2)
            if not t.is_zero:
                coeffs[alg.basis.var(g2)] = t
        fields.append(CoadjointField(g, coeffs, alg))
    return tuple(fields)


def check_field_homomorphism(n: int,
                             algebra: GnAlgebra | None = None) -> Report:
    """Commutator of coadjoint fields equals the field of the bracket."""
    alg = algebra or build_gn(n)
    fields = build_coadjoint(n, alg)
    by_gen = {f.source: f for f in fields}
    order = alg.basis.order
    var_ids = [alg.basis.var(g) for g in order]
    fails: list[str] = []
    pairs = 0
    for fa, fb in combinations(fields, 2):
        pairs += 1
        parts = _bracket_parts(alg, fa.source, fb.source)
        for v in var_ids:
            lhs = fa.apply(fb.coefficient_of(v)) - fb.apply(fa.coefficient_of(v))
            rhs = poly_sum(alg.registry, (by_gen[g].coefficient_of(v) * c
                                          for g, c in parts))
            if lhs != rhs:
                fails.append(
                    f"field commutator ({fa.source.name}, {fb.source.name}) "
                    f"differs on {v.name}")
    return Report("coadjoint_fields", {"n": n, "pairs": pairs}, fails)
