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

from itertools import combinations
from typing import Iterator

from .algebra import Generator, GnAlgebra
from .poly import (Polynomial, RegistryMismatch, derive, monomial,
                   sparse_nullspace)
from .reports import Report


class MatrixRep:
    """Integer images of the generators; `kills` names the generators whose
    span the representation is built to have as its kernel."""

    def __init__(self, name: str, size: int,
                 image: dict[Generator, list[list[int]]], algebra: GnAlgebra,
                 kills: tuple[Generator, ...]):
        self.name = name
        self.size = size
        self.image = image
        self.algebra = algebra
        self.kills = kills

    def of(self, g: Generator) -> list[list[int]]:
        return self.image[g]


def _faithful_cells(n: int, g: Generator) -> Iterator[tuple[int, int, int]]:
    """The nonzero cells (row, col, value), 1-based, of the faithful image
    of `g` at level n; a cell given twice adds up.  No column exceeds n."""
    if g.kind == "h":
        yield n - 1, n - 1, 1
        yield n, n, -1
    elif g.kind == "xp":
        yield n - 1, n, 1
    elif g.kind == "xm":
        yield n, n - 1, 1
    elif g.kind == "yp":
        yield n - 1, g.i, 1
        yield n + g.i, n, 1
    elif g.kind == "ym":
        yield n, g.i, 1
        yield n + g.i, n - 1, -1
    else:  # central z_{i,j}
        yield g.i + n, g.j, 1
        yield g.j + n, g.i, 1


def _matrix(size: int, cells: Iterator[tuple[int, int, int]]
            ) -> list[list[int]]:
    """Integer rows from 1-based (row, col, value) cells, other entries
    zero."""
    rows = [[0] * size for _ in range(size)]
    for r, c, v in cells:
        rows[r - 1][c - 1] += v
    return rows


def build_faithful_rep(alg: GnAlgebra) -> MatrixRep:
    n = alg.n
    size = 2 * (n - 1)
    image = {g: _matrix(size, _faithful_cells(n, g)) for g in alg.basis.order}
    return MatrixRep("faithful", size, image, alg, ())


def build_quotient_rep(alg: GnAlgebra) -> MatrixRep:
    """The faithful representation on V/W, W spanned by the basis vectors
    n+1..2n-2: no faithful image has a column beyond n, so each maps W to
    0, and the quotient keeps the cells in rows up to n."""
    n = alg.n
    image = {g: _matrix(n, (c for c in _faithful_cells(n, g) if c[0] <= n))
             for g in alg.basis.order}
    return MatrixRep("quotient", n, image, alg, alg.basis.centrals)


def _add_product(acc: dict, a: list[dict], b: list[dict], scale) -> None:
    """Add scale * (a @ b) into `acc` ({(row, col): value}), for matrices
    given as one {col: value} dict of nonzero entries per row."""
    get = acc.get
    for i, row in enumerate(a):
        for k, x in row.items():
            for j, y in b[k].items():
                acc[i, j] = get((i, j), 0) + scale * x * y


def check_homomorphism(rep: MatrixRep) -> Report:
    """Pairwise commutator test plus kernel extraction.

    Each image is read once as a sparse matrix of its nonzero entries,
    and [rho(a), rho(b)] - sum c rho(g) is accumulated entry by entry.
    The kernel of the linear map generator -> matrix is computed exactly
    and must be the span of `rep.kills`: of its dimension and inside it.
    The report records its dimension and whether it sits inside the centre.
    """
    alg = rep.algebra
    order = alg.basis.order
    brackets = alg.constants.brackets
    mats = [rep.of(g) for g in order]
    sparse = [[{j: v for j, v in enumerate(row) if v} for row in m]
              for m in mats]
    identity = [{i: 1} for i in range(rep.size)]
    fails: list[str] = []
    pairs = 0
    for a, b in combinations(range(len(order)), 2):
        pairs += 1
        diff: dict = {}
        _add_product(diff, sparse[a], sparse[b], 1)
        _add_product(diff, sparse[b], sparse[a], -1)
        for k, c in brackets[a].get(b, {}).items():
            _add_product(diff, sparse[k], identity, -c)
        if any(diff.values()):
            fails.append(f"commutator mismatch on "
                         f"({order[a].name}, {order[b].name})")
    for g, m in zip(order, mats):
        tr = sum(m[i][i] for i in range(rep.size))
        if tr:
            fails.append(f"image of {g.name} has trace {tr}")
    rows = ({j: m[r][c] for j, m in enumerate(mats)}
            for r in range(rep.size) for c in range(rep.size))
    kernel = sparse_nullspace(rows, len(order))
    z_positions = {alg.basis.index(g) for g in alg.basis.centrals}
    in_centre = all(not (vec.keys() - z_positions) for vec in kernel)
    killed = {alg.basis.index(g) for g in rep.kills}
    if len(kernel) != len(killed):
        fails.append(f"kernel has dimension {len(kernel)}, not {len(killed)}")
    if any(vec.keys() - killed for vec in kernel):
        names = ", ".join(g.name for g in rep.kills)
        fails.append(f"kernel leaves the span of {{{names}}}")
    return Report(f"{rep.name}_representation",
                  {"n": alg.n, "size": rep.size, "pairs": pairs,
                   "kernel_dim": len(kernel), "kernel_in_centre": in_centre},
                  fails)


class CoadjointField:
    """Derivation sum_v terms[v] d/dv attached to one source generator, as
    `derive` takes it: `terms` maps a variable index to the term dict of
    its coefficient, and `degree` is their largest degree, 1 for a nonzero
    field (the coefficients are linear) and 0 for the zero field."""

    def __init__(self, source: Generator, terms: dict[int, dict],
                 degree: int, algebra: GnAlgebra):
        self.source = source
        self.terms = terms
        self.degree = degree
        self.algebra = algebra

    def apply(self, p: Polynomial) -> Polynomial:
        if p.registry is not self.algebra.registry:
            raise RegistryMismatch(
                "foreign variables: not in this algebra's generators")
        return Polynomial(p.registry, derive(p.terms, p.total_degree(),
                                             self.terms, self.degree))


def build_coadjoint(alg: GnAlgebra) -> tuple[CoadjointField, ...]:
    """One vector field per generator, in canonical order; central
    generators yield the zero field."""
    order = alg.basis.order
    unit = [monomial({k: 1}) for k in range(len(order))]
    return tuple(
        CoadjointField(g, {b: {unit[k]: c for k, c in row[b].items()}
                           for b in sorted(row)}, int(bool(row)), alg)
        for g, row in zip(order, alg.constants.brackets))


def check_field_homomorphism(alg: GnAlgebra) -> Report:
    """Commutator of coadjoint fields equals the field of the bracket: for
    [a, b] = sum_k c_k g_k and every variable v, the coefficient of
    [X_a, X_b] on v, X_a(X_b^v) - X_b(X_a^v), is sum_k c_k X_k^v.  Worked
    on the term dicts of the built fields, with `derive` as in `apply`."""
    fields = build_coadjoint(alg)
    brackets = alg.constants.brackets
    fails: list[str] = []
    pairs = 0
    for (a, fa), (b, fb) in combinations(enumerate(fields), 2):
        pairs += 1
        parts = [(fields[k].terms, c)
                 for k, c in brackets[a].get(b, {}).items()]
        for v in sorted(fa.terms.keys() | fb.terms.keys()
                        | {v for terms, _ in parts for v in terms}):
            diff = derive(fb.terms.get(v, {}), fb.degree, fa.terms, fa.degree)
            for m, x in derive(fa.terms.get(v, {}), fa.degree, fb.terms,
                               fb.degree).items():
                diff[m] = diff.get(m, 0) - x
            for terms, c in parts:
                for m, x in terms.get(v, {}).items():
                    diff[m] = diff.get(m, 0) - c * x
            if any(diff.values()):
                fails.append(
                    f"field commutator ({fa.source.name}, {fb.source.name}) "
                    f"differs on {alg.registry.name_of(v)}")
    return Report("coadjoint_fields", {"n": alg.n, "pairs": pairs}, fails)
