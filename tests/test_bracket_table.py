"""The linear structure checks on the integer bracket table against their
polynomial-bracket oracles.

Each oracle is the check as it was written on the Lie-Poisson bracket of
generator polynomials (`lie_poisson` in conftest) and on the table read
one bracket at a time as a polynomial (`StructureConstants.of`).  For
n = 2..6 every check's Report equals its oracle's, and a perturbation of
the table that breaks a check's claim makes the check and its oracle fail
alike.
"""

from itertools import combinations, product

import pytest

from conftest import commutator_matrix, grade_of, lie_poisson
from gnlab import (InvariantCount, Polynomial, Report, beltrametti_blasi,
                   build_coadjoint, build_faithful_rep, build_gn,
                   build_quotient_rep, canonical_order, casimir,
                   casimir_matrix, check_field_homomorphism, check_grading,
                   check_homomorphism, check_jacobi, check_levi,
                   check_structure, check_subalgebra_chain, compute_centre,
                   ideal_complement, rank_rational, sparse_nullspace,
                   triangular, verify_intertwining)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.casimir import _grading
from gnlab.poly import monomial, poly_sum
from gnlab.representations import _add_product

# ----------------------------------------------------------------------
# oracles: the checks on polynomial brackets


def jacobi_oracle(alg):
    P = alg.basis.poly
    fails = []
    count = 0
    for a, b, c in combinations(alg.basis.order, 3):
        count += 1
        pa, pb, pc = P(a), P(b), P(c)
        jac = (lie_poisson(alg, lie_poisson(alg, pa, pb), pc)
               + lie_poisson(alg, lie_poisson(alg, pb, pc), pa)
               + lie_poisson(alg, lie_poisson(alg, pc, pa), pb))
        if jac:
            fails.append(
                f"jacobiator of ({a.name}, {b.name}, {c.name}) = {jac}")
    return Report("jacobi", {"n": alg.n, "triples": count}, fails)


def _span(alg, gens):
    return frozenset(alg.basis.var(g).index for g in gens)


def subalgebra_chain_oracle(alg):
    n = alg.n
    P = alg.basis.poly
    fails = []
    sub_pairs = 0
    for k in range(2, n):
        gens_k = canonical_order(k)
        allowed = _span(alg, gens_k)
        for a, b in combinations(gens_k, 2):
            sub_pairs += 1
            if lie_poisson(alg, P(a), P(b)).support_indices() - allowed:
                fails.append(f"[{a.name},{b.name}] leaves the level-{k} span")
    ideal_pairs = 0
    for k in range(3, n + 1):
        ideal = ideal_complement(k)
        allowed = _span(alg, ideal)
        for a in canonical_order(k):
            for b in ideal:
                ideal_pairs += 1
                if lie_poisson(alg, P(a), P(b)).support_indices() - allowed:
                    fails.append(
                        f"[{a.name},{b.name}] leaves the level-{k} ideal")
    return Report("subalgebra_chain",
                  {"n": n, "subalgebra_pairs": sub_pairs,
                   "ideal_pairs": ideal_pairs}, fails)


def levi_oracle(alg):
    P = alg.basis.poly
    c = alg.constants
    fails = []
    if c.of(X_PLUS, X_MINUS) != P(H):
        fails.append("[x+, x-] != h")
    if c.of(H, X_PLUS) != 2 * P(X_PLUS):
        fails.append("[h, x+] != 2 x+")
    if c.of(H, X_MINUS) != -2 * P(X_MINUS):
        fails.append("[h, x-] != -2 x-")
    radical = alg.basis.ladder + alg.basis.centrals
    rad_idx = _span(alg, radical)
    z_idx = _span(alg, alg.basis.centrals)
    for a in alg.basis.order:
        for b in radical:
            if lie_poisson(alg, P(a), P(b)).support_indices() - rad_idx:
                fails.append(f"[{a.name},{b.name}] leaves the radical")
    for a, b in combinations(radical, 2):
        br = lie_poisson(alg, P(a), P(b))
        if br.support_indices() - z_idx:
            fails.append(f"[{a.name},{b.name}] is not central")
        for e in radical:
            if lie_poisson(alg, br, P(e)):
                fails.append(f"[[{a.name},{b.name}],{e.name}] != 0")
    return Report("levi_split", {"n": alg.n, "radical_dim": len(radical)},
                  fails)


def centre_oracle(alg):
    order = alg.basis.order
    rows = ({i: alg.constants.of(gi, gj).coefficient({gk.name: 1})
             for i, gi in enumerate(order)}
            for gj in order for gk in order)
    return sparse_nullspace(rows, len(order))


def beltrametti_blasi_oracle(alg):
    A = commutator_matrix(alg)
    point = {}
    for g in alg.basis.order:
        if g.kind == "z":
            v = 1 if g.i == g.j else 0
        else:
            v = 0 if g.kind in ("ym", "yp") else 1
        point[monomial({alg.basis.var(g).index: 1})] = v
    lower = rank_rational(
        {j: sum(c * point[m] for m, c in e.terms.items())
         for j, e in enumerate(row)} for row in A)
    antisymmetric = all(A[i][j] == -A[j][i]
                        for i in range(len(A)) for j in range(i, len(A)))
    nonzero = sum(map(any, A))
    upper = nonzero - nonzero % 2 if antisymmetric else nonzero
    return InvariantCount(rank=lower, rank_upper_bound=upper,
                          nu=alg.basis.dim - lower)


def _bracket_parts(alg, a, b):
    br = alg.constants.of(a, b)
    return [(g, c) for g in alg.basis.order
            if (c := br.coefficient({g.name: 1}))]


def homomorphism_oracle(rep):
    alg = rep.algebra
    order = alg.basis.order
    mats = [rep.of(g) for g in order]
    sparse = {g: [{j: v for j, v in enumerate(row) if v} for row in m]
              for g, m in zip(order, mats)}
    identity = [{i: 1} for i in range(rep.size)]
    fails = []
    pairs = 0
    for a, b in combinations(order, 2):
        pairs += 1
        diff = {}
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


def field_homomorphism_oracle(alg):
    fields = build_coadjoint(alg)
    by_gen = {f.source: f for f in fields}
    var_ids = [alg.basis.var(g) for g in alg.basis.order]

    def coefficient(field, v):
        return Polynomial(alg.registry, field.terms.get(v.index, {}))

    fails = []
    pairs = 0
    for fa, fb in combinations(fields, 2):
        pairs += 1
        parts = _bracket_parts(alg, fa.source, fb.source)
        for v in var_ids:
            lhs = (fa.apply(coefficient(fb, v))
                   - fb.apply(coefficient(fa, v)))
            rhs = poly_sum(alg.registry, (coefficient(by_gen[g], v) * c
                                          for g, c in parts))
            if lhs != rhs:
                fails.append(
                    f"field commutator ({fa.source.name}, {fb.source.name}) "
                    f"differs on {v.name}")
    return Report("coadjoint_fields", {"n": alg.n, "pairs": pairs}, fails)


def intertwining_oracle(alg):
    n = alg.n
    m = casimir_matrix(alg)
    quotient = build_quotient_rep(alg)
    fails = []
    for g in alg.basis.order:
        pg = alg.basis.poly(g)
        q = [[(k, -v) for k, v in enumerate(row) if v]
             for row in quotient.of(g)]
        for i, j in product(range(n), repeat=2):
            rhs = poly_sum(alg.registry, [m[k][j] * c for k, c in q[i]]
                           + [m[i][k] * c for k, c in q[j]])
            if lie_poisson(alg, pg, m[i][j]) != rhs:
                fails.append(f"intertwining fails for {g.name}")
                break
    return Report("intertwining", {"n": n, "generators": alg.basis.dim}, fails)


def grading_oracle(alg):
    """The bracket half of `check_grading`, every generator pair's
    polynomial bracket tested monomial by monomial."""
    grading = _grading(alg)
    fails = []
    for a, b in product(alg.basis.order, repeat=2):
        want = tuple(map(sum, zip(grading[alg.basis.var(a).index],
                                  grading[alg.basis.var(b).index])))
        for mono in alg.constants.of(a, b).terms:
            if grade_of(grading, mono) != want:
                fails.append(f"[{a.name},{b.name}] is not of grade {want}")
                break
    return fails


# ----------------------------------------------------------------------
# the table checks against their oracles


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_table_checks_equal_their_oracles(n):
    alg = build_gn(n)
    assert check_jacobi(alg) == jacobi_oracle(alg)
    if n >= 3:
        assert check_subalgebra_chain(alg) == \
            subalgebra_chain_oracle(alg)
        assert check_levi(alg) == levi_oracle(alg)
    centre = compute_centre(alg)
    assert centre == centre_oracle(alg)
    assert len(centre) == triangular(n - 2)
    assert beltrametti_blasi(alg) == beltrametti_blasi_oracle(alg)
    for rep in (build_faithful_rep(alg), build_quotient_rep(alg)):
        assert check_homomorphism(rep) == \
            homomorphism_oracle(rep)
    assert check_field_homomorphism(alg) == \
        field_homomorphism_oracle(alg)
    assert verify_intertwining(casimir(alg)) == intertwining_oracle(alg)
    assert check_grading(casimir(alg)).failures == grading_oracle(alg) == []


# ----------------------------------------------------------------------
# perturbed tables: each check and its oracle fail alike


def perturbed(n, a, b, bracket):
    """Level n with [a, b] set to `bracket` ({generator: coefficient}) and
    [b, a] to its negative, so the table stays antisymmetric."""
    alg = build_gn(n)
    pos = alg.basis.index
    vector = {pos(g): c for g, c in bracket.items()}
    alg.constants.brackets[pos(a)][pos(b)] = vector
    alg.constants.brackets[pos(b)][pos(a)] = {k: -c for k, c in vector.items()}
    return alg


def test_jacobi_levi_and_fields_fail_on_a_noncentral_ladder_bracket():
    """[y1+, y1-] = z11 + h: the jacobiator of (x+, y1-, y1+) is
    [[y1-, y1+], x+] = -[h, x+] = -2 x+; the radical is no longer two-step
    nilpotent ([[y1-, y1+], y1-] = -[h, y1-] = y1-); and the fields of
    x+, y1- and y1+ stop being a homomorphic image."""
    alg = perturbed(4, y_plus(1), y_minus(1), {central(1, 1): 1, H: 1})
    report = check_jacobi(alg)
    assert not report.passed
    assert "jacobiator of (xp, y1m, y1p) = -2*xp" in report.failures
    assert report == jacobi_oracle(alg)
    levi = check_levi(alg)
    assert {"[y1m,y1p] is not central",
            "[[y1m,y1p],y1m] != 0"} <= set(levi.failures)
    assert levi == levi_oracle(alg)
    fields = check_field_homomorphism(alg)
    assert not fields.passed
    assert fields == field_homomorphism_oracle(alg)


def test_chain_and_levi_fail_when_h_moves_x_plus_out_of_sl2():
    """[h, x+] = 2 x+ + y1+ leaves the level-2 span and breaks the sl2
    relations of the Levi factor."""
    alg = perturbed(4, H, X_PLUS, {X_PLUS: 2, y_plus(1): 1})
    chain = check_subalgebra_chain(alg)
    assert "[h,xp] leaves the level-2 span" in chain.failures
    assert chain == subalgebra_chain_oracle(alg)
    levi = check_levi(alg)
    assert "[h, x+] != 2 x+" in levi.failures
    assert levi == levi_oracle(alg)


def test_centre_shrinks_when_a_central_element_acts():
    """[z11, x+] = x+ takes z11 out of the centre: the centre has dimension
    T(2) - 1 = 2 by both routes, and the structure check fails on it."""
    alg = perturbed(4, central(1, 1), X_PLUS, {X_PLUS: 1})
    centre = compute_centre(alg)
    assert centre == centre_oracle(alg)
    assert len(centre) == 2
    assert beltrametti_blasi(alg) == beltrametti_blasi_oracle(alg)
    assert "centre dimension 2 != 3" in check_structure(alg).failures


def test_representations_fail_on_a_rescaled_sl2_bracket():
    """[x+, x-] = 2 h: the faithful images still commute to h, and the
    bracket action on the Casimir matrix no longer intertwines."""
    alg = perturbed(4, X_PLUS, X_MINUS, {H: 2})
    rep = build_faithful_rep(alg)
    report = check_homomorphism(rep)
    assert "commutator mismatch on (xm, xp)" in report.failures
    assert report == homomorphism_oracle(rep)
    twined = verify_intertwining(casimir(alg))
    assert not twined.passed
    assert twined == intertwining_oracle(alg)
