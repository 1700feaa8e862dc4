"""Shared test helpers: an independent determinant oracle, exact
evaluation, the realised harmonic oscillator, the Lie-Poisson bracket and
the commutator matrix as polynomial oracles of the bracket table, an
independent canonical term order, a reference writer and a reader for the
JSON polynomial form, and small random polynomial generators.

The determinant oracle expands along the last column with no memoization,
so it shares no code path with the library's memoized expansion in
complementary half-row minors.
"""

import json
import os
from fractions import Fraction

import pytest

from gnlab import (GnAlgebra, MissingVariable, PhaseContext, Polynomial,
                   VarRegistry)
from gnlab.algebra import X_MINUS, X_PLUS
from gnlab.poly import exponents, monomial, poly_sum


def cofactor_det(rows):
    """Plain cofactor expansion along the last column.

    `rows` is a square list-of-lists of Polynomials sharing one registry.
    """
    size = len(rows)
    if size == 1:
        return rows[0][0]
    last = size - 1
    out = None
    for r in range(size):
        entry = rows[r][last]
        if not entry:
            continue
        minor = [[rows[i][j] for j in range(last)]
                 for i in range(size) if i != r]
        term = entry * cofactor_det(minor)
        if (r + last) % 2:
            term = -term
        out = term if out is None else out + term
    if out is None:
        return rows[0][0].registry.zero()
    return out


def evaluate(p: Polynomial, point) -> Fraction:
    """Exact value of `p` at `point`, a map from variable names or VarIds
    to rationals; every variable of `p` must be assigned."""
    values = {p.registry.var(k).index: Fraction(v) for k, v in point.items()}
    total = Fraction(0)
    for m, c in p.terms.items():
        for i, e in exponents(m):
            if i not in values:
                raise MissingVariable(
                    f"no value for {p.registry.name_of(i)!r}")
            c *= values[i] ** e
        total += c
    return total


def harmonic_hamiltonian(ctx: PhaseContext) -> Polynomial:
    """Realisation of x+ - x-: the N-dimensional unit-frequency oscillator
    sum_k (p_k^2 + q_k^2) / 2."""
    P = ctx.algebra.basis.poly
    return ctx.realize_poly(P(X_PLUS) - P(X_MINUS))


def lie_poisson(alg: GnAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """The Lie-Poisson bracket {f, g} = sum_{i,j} [x_i, x_j] (df/dx_i)
    (dg/dx_j) of two polynomials in the generator variables, by partial
    derivatives and polynomial products, each [x_i, x_j] read from the
    table as a polynomial by `StructureConstants.of`."""
    assert f.registry is g.registry is alg.registry
    reg = alg.registry
    generator_of_var = {alg.basis.var(x).index: x for x in alg.basis.order}
    gparts = {j: g.partial(reg.var_ids[j]) for j in g.support_indices()}
    products = []
    for i in sorted(f.support_indices()):
        dfi = f.partial(reg.var_ids[i])
        for j in sorted(gparts):
            t = alg.constants.of(generator_of_var[i], generator_of_var[j])
            if t and dfi and gparts[j]:
                products.append(t * dfi * gparts[j])
    return poly_sum(reg, products)


def commutator_matrix(alg: GnAlgebra) -> list[list[Polynomial]]:
    """The rows of the antisymmetric matrix A_ab = [g_a, g_b] of the
    bracket table, its entries linear polynomials."""
    order = alg.basis.order
    return [[alg.constants.of(a, b) for b in order] for a in order]


def grade_of(grading: dict[int, tuple[int, ...]], mono: int) -> tuple:
    """The grade of a monomial under a grading of its variables by
    registry index (`gnlab.casimir._grading`): the exponent-weighted sum
    of their grades, decoded one variable at a time."""
    total = [0] * len(next(iter(grading.values())))
    for i, e in exponents(mono):
        for k, v in enumerate(grading[i]):
            total[k] += e * v
    return tuple(total)


def poly_json(p: Polynomial, pad: str = "") -> str:
    """The text ``Polynomial.to_json`` writes, collected into one string."""
    pieces: list[str] = []
    p.to_json(pieces.append, pad)
    return "".join(pieces)


def canonical_order(p: Polynomial) -> list:
    """The terms of `p` by descending (total degree, dense exponent tuple),
    the tuple built from `exponents`, so the order shares no code with
    ``Polynomial.sorted_terms``."""
    size = len(p.registry)

    def key(term):
        dense = [0] * size
        for i, e in exponents(term[0]):
            dense[i] = e
        return sum(dense), tuple(dense)

    return sorted(p.terms.items(), key=key, reverse=True)


def poly_json_reference(p: Polynomial, pad: str = "") -> str:
    """The text ``Polynomial.to_json(write, pad)`` must write, made the
    slow way: a dict with one ``{"coeff", "monomial"}`` dict per term in
    `canonical_order`, dumped by ``json.dumps(indent=2, sort_keys=True)``,
    with `pad` put after every newline."""
    names = [v.name for v in p.registry.var_ids]
    data = {"terms": [
        {"coeff": str(c),
         "monomial": {names[i]: e for i, e in exponents(m)}}
        for m, c in canonical_order(p)]}
    return json.dumps(data, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def poly_from_json(registry: VarRegistry, data) -> Polynomial:
    """Read back the parsed ``{"terms": [{"coeff", "monomial"}]}`` form,
    ``json.loads(poly_json(p))``.  The library only writes this form, so
    the reader lives with the tests that check the round trip."""
    terms: dict = {}
    for term in data["terms"]:
        mono = monomial({registry.var(name).index: int(e)
                         for name, e in term["monomial"].items()})
        terms[mono] = terms.get(mono, 0) + Fraction(term["coeff"])
    return Polynomial(registry, terms)


def random_poly(reg: VarRegistry, rng, names=None, max_terms=4,
                max_degree=3) -> Polynomial:
    """Small random polynomial with integer coefficients in [-9, 9]."""
    if names is None:
        names = [v.name for v in reg.var_ids]
    out = reg.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = reg.const(Fraction(rng.randint(-9, 9)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * reg.poly(rng.choice(names))
        out = out + term
    return out


def rational_point(reg: VarRegistry, rng) -> dict:
    return {v: Fraction(rng.randint(-50, 50), rng.randint(1, 7))
            for v in reg.var_ids}


@pytest.fixture(autouse=True)
def no_process_left():
    """Every test reaps each process it starts: after the test this
    process has no child, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_" not in nodeid:
                continue
            name = nodeid.split("::test_", 1)[1]
            num, _, label = name.partition("_")
            status = "PASS" if outcome == "passed" else "FAIL"
            lines[num] = f"ACCEPTANCE {num} {label}: {status}"
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
