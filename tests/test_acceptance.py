"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

Each test is one criterion; the terminal summary prints one PASS/FAIL line
per criterion (see conftest).  Exact means exact: every polynomial identity
here is checked over the rationals, never numerically.
"""

import json
import math
import random
import time

from conftest import cofactor_det, harmonic_hamiltonian
from gnlab import (PhaseContext, beltrametti_blasi, build_faithful_rep,
                   build_gn, build_quotient_rep, casimir, check_independence,
                   check_involution, check_jacobi, check_levi,
                   check_homomorphism, check_route_equivalence,
                   check_subalgebra_chain, check_uniqueness, check_vanishing,
                   compute_centre, drift_report, integral_set, integrate,
                   parse_polynomial, triangular,
                   verify_annihilation, verify_intertwining,
                   HamiltonianSystem)
from gnlab.algebra import H, X_MINUS, X_PLUS, central, y_minus, y_plus
from gnlab.cli import main

GRID = ((2, 4), (3, 4), (3, 5), (4, 5))


def test_01_golden_invariants(capsys):
    t0 = time.time()
    assert main(["casimir", "--n", "2"]) == 0
    assert capsys.readouterr().out == "h^2 + 4*xp*xm\n"
    assert time.time() - t0 < 1.0

    t0 = time.time()
    c3 = casimir(build_gn(3)).polynomial
    assert time.time() - t0 < 1.0
    assert len(c3.terms) == 5
    assert c3.coefficient({"z1_1": 1, "h": 2}) == 1
    assert c3.coefficient({"z1_1": 1, "xp": 1, "xm": 1}) == 4
    assert c3.coefficient({"h": 1, "y1m": 1, "y1p": 1}) == 2
    assert c3.coefficient({"xp": 1, "y1m": 2}) == 2
    assert c3.coefficient({"xm": 1, "y1p": 2}) == -2

    t0 = time.time()
    alg = build_gn(4)
    P = alg.basis.poly
    bordered = [
        [P(central(1, 1)), P(central(1, 2)), -P(y_minus(1)), P(y_plus(1))],
        [P(central(1, 2)), P(central(2, 2)), -P(y_minus(2)), P(y_plus(2))],
        [-P(y_minus(1)), -P(y_minus(2)), -2 * P(X_MINUS), P(H)],
        [P(y_plus(1)), P(y_plus(2)), P(H), 2 * P(X_PLUS)],
    ]
    assert casimir(alg).polynomial == -cofactor_det(bordered)
    assert time.time() - t0 < 1.0


def test_02_annihilation():
    t0 = time.time()
    for n in range(2, 7):
        rep = verify_annihilation(casimir(build_gn(n)))
        assert rep.passed, rep.failures
        assert rep.data["fields"] == triangular(n)
    assert time.time() - t0 < 120.0


def test_03_intertwining():
    t0 = time.time()
    for n in range(2, 7):
        rep = verify_intertwining(casimir(build_gn(n)))
        assert rep.passed, rep.failures
    assert time.time() - t0 < 60.0


def test_04_structure_suite():
    for n in range(2, 7):
        alg = build_gn(n)
        assert check_jacobi(alg).passed
        if n >= 3:
            assert check_subalgebra_chain(alg).passed
            assert check_levi(alg).passed
        assert len(compute_centre(alg)) == triangular(n - 2)
        faithful = check_homomorphism(build_faithful_rep(alg))
        assert faithful.passed and faithful.data["kernel_dim"] == 0
        quotient = check_homomorphism(build_quotient_rep(alg))
        assert quotient.passed
        assert quotient.data["kernel_dim"] == triangular(n - 2)
        assert quotient.data["kernel_in_centre"]


def test_05_invariant_counts():
    t0 = time.time()
    for n in range(2, 7):
        bb = beltrametti_blasi(build_gn(n))
        assert bb.rank == bb.rank_upper_bound == 2 * (n - 1)
        assert bb.nu == triangular(n - 2) + 1
    assert time.time() - t0 < 30.0


def test_06_ansatz_rediscovery():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        rep = check_uniqueness(casimir(build_gn(n)), max_degree=n)
        assert rep.passed, rep.failures
        assert rep.data["contains_casimir"] is True
        # degree-n invariants: the products of central variables, plus C_n
        central_products = math.comb(triangular(n - 2) + n - 1, n)
        assert rep.data["dimensions"][str(n)] == central_products + 1
    assert time.time() - t0 < 300.0


def test_07_route_equivalence():
    t0 = time.time()
    for (n, N) in GRID:
        ctx = PhaseContext.seeded(n, N)
        rep = check_route_equivalence(ctx)
        assert rep.passed, rep.failures
        assert rep.data["windows"] == 2 * (N - n + 1)
    assert time.time() - t0 < 120.0


def test_08_involution_and_commutation():
    for (n, N) in GRID:
        ctx = PhaseContext.seeded(n, N)
        rep = check_involution(ctx)
        assert rep.passed, rep.failures
    # many nested windows: 10 pairs at (6, 10), 36 per side at (4, 12)
    t0 = time.time()
    for (n, N) in ((6, 10), (4, 12)):
        rep = check_involution(PhaseContext.seeded(n, N))
        assert rep.passed, rep.failures
        assert rep.data["pairs"] == 2 * math.comb(N - n + 1, 2)
    assert time.time() - t0 < 20.0


def test_09_vanishing_threshold():
    for (n, N) in GRID:
        ctx = PhaseContext.seeded(n, N)
        rep = check_vanishing(ctx)
        assert rep.passed, rep.failures


def test_10_independence_counts():
    for (n, N) in ((2, 3), (3, 4), (4, 5)):
        ctx = PhaseContext.seeded(n, N)
        res = check_independence(ctx, seed=0)
        assert res.rank == res.expected == 2 * (N - n) + 2
        assert len(res.attempts) <= 5


def test_11_numerical_conservation():
    for (n, N) in ((2, 3), (3, 4)):
        ctx = PhaseContext.seeded(n, N)
        rng = random.Random(0)
        x0 = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2 * N)]

        t0 = time.time()
        system = HamiltonianSystem.build(ctx, harmonic_hamiltonian(ctx))
        obs = {}
        for m, p in integral_set(ctx, "left").items():
            obs[f"left_m{m}"] = p
        for m, p in integral_set(ctx, "right").items():
            if m < N:
                obs[f"right_m{m}"] = p
        traj = integrate(system, x0, 1e-3, 10.0, observables=obs)
        for name, stats in drift_report(traj).items():
            assert stats.max_relative_deviation < 1e-6, (name, stats)
        assert time.time() - t0 < 30.0

        # step halving: measured on an anharmonic Hamiltonian where the
        # fourth-order truncation error dominates (the purely harmonic
        # case decays at fifth order and sits on the roundoff floor)
        expr = "xp - xm + xm^2 + xp*xm"
        anharmonic = ctx.realize_poly(
            parse_polynomial(expr, ctx.algebra.registry))
        system = HamiltonianSystem.build(ctx, anharmonic)
        drifts = {}
        for step in (0.02, 0.01):
            traj = integrate(system, x0, step, 10.0)
            drifts[step] = drift_report(traj)["H"].max_relative_deviation
        factor = drifts[0.02] / drifts[0.01]
        assert 10.0 <= factor <= 24.0, factor


def test_12_byte_determinism(tmp_path):
    outputs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code = main(["verify", "--n", "3", "--N", "4", "--seed", "42",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["schema"] == 2 and payload["passed"] is True
