"""Integrators: compiled evaluators vs exact evaluation, conservation on
closed orbits, separability detection, zero-length runs, and the
fourth-order convergence of RK4 measured by step halving.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gnlab import (HamiltonianSystem, PhaseContext, compile_evaluator,
                   drift_report, harmonic_hamiltonian, integrate,
                   parse_polynomial)


def oscillator(N=1):
    ctx = PhaseContext(2, N)
    H = harmonic_hamiltonian(ctx)
    return ctx, HamiltonianSystem.build(ctx, H)


def test_compiled_evaluator_matches_exact():
    ctx = PhaseContext(2, 2)
    rng = random.Random(73)
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    names = [v.name for v in ctx.state_vars()]
    from conftest import random_poly
    for _ in range(15):
        p = random_poly(ctx.registry, rng, names=names)
        fn = compile_evaluator(p, slot_of)
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(4)]
        exact = p.eval({v: point[i] for i, v in enumerate(ctx.state_vars())})
        got = fn(np.array([float(v) for v in point]))
        assert math.isclose(got, float(exact), rel_tol=1e-12, abs_tol=1e-12)


def test_build_rejects_generator_variables():
    ctx = PhaseContext(2, 1)
    with pytest.raises(ValueError, match="non-phase"):
        HamiltonianSystem.build(ctx, ctx.algebra.basis.poly(
            ctx.algebra.basis.order[0]))


def test_equations_of_motion():
    ctx, system = oscillator()
    # H = (p^2 + q^2)/2: dq/dt = p, dp/dt = -q
    assert system.dq_dt[0] == ctx.p(1)
    assert system.dp_dt[0] == -ctx.q(1)


def test_exact_circle():
    # q(t) = sin t, p(t) = cos t; compare at the actual sampled times
    ctx, system = oscillator()
    traj = integrate(system, [0.0, 1.0], 1e-3, 2 * math.pi)
    t = float(traj.times[-1])
    assert abs(traj.states[-1][0] - math.sin(t)) < 1e-9
    assert abs(traj.states[-1][1] - math.cos(t)) < 1e-9
    mid = len(traj.times) // 2
    tm = float(traj.times[mid])
    assert abs(traj.states[mid][0] - math.sin(tm)) < 1e-9


def test_zero_length_run():
    ctx, system = oscillator()
    traj = integrate(system, [0.3, -0.2], 1e-2, 0.0)
    assert traj.states.shape == (1, 2)
    assert traj.times.shape == (1,)
    assert traj.states[0][0] == pytest.approx(0.3)
    assert "H" in traj.observables


def test_input_validation():
    ctx, system = oscillator()
    with pytest.raises(ValueError):
        integrate(system, [0.0], 1e-2, 1.0)
    with pytest.raises(ValueError):
        integrate(system, [0.0, 1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(system, [0.0, 1.0], 1e-2, -1.0)
    with pytest.raises(ValueError):
        integrate(system, [0.0, 1.0], 1e-2, 1.0, scheme="euler")


def test_separability_detection():
    ctx = PhaseContext(2, 1)
    separable = ctx.realize_poly(parse_polynomial("xp - xm", ctx.registry))
    assert HamiltonianSystem.build(ctx, separable).is_separable()
    mixed = ctx.realize_poly(parse_polynomial("h", ctx.registry))  # q*p
    assert not HamiltonianSystem.build(ctx, mixed).is_separable()
    with pytest.raises(ValueError, match="leapfrog"):
        integrate(HamiltonianSystem.build(ctx, mixed),
                  [0.1, 0.2], 1e-2, 0.1, scheme="leapfrog")


def test_leapfrog_energy_stays_bounded():
    ctx, system = oscillator()
    traj = integrate(system, [0.0, 1.0], 1e-2, 50.0, scheme="leapfrog")
    drift = drift_report(traj)["H"]
    assert drift.max_relative_deviation < 5e-4


def test_rk4_conserves_all_observables():
    ctx = PhaseContext.seeded(2, 3)
    system = HamiltonianSystem.build(ctx, harmonic_hamiltonian(ctx))
    from gnlab import integral_set
    obs = {f"m{m}": p for m, p in integral_set(ctx, "left").members.items()}
    rng = random.Random(1)
    x0 = [rng.uniform(-1, 1) for _ in range(6)]
    traj = integrate(system, x0, 1e-3, 10.0, observables=obs)
    for name, stats in drift_report(traj).items():
        assert stats.max_relative_deviation < 1e-6, name


def test_relative_drift_denominator():
    ctx, system = oscillator()
    # an observable that starts at zero: relative equals absolute
    traj = integrate(system, [0.0, 1.0], 1e-2, 1.0,
                     observables={"pos": ctx.q(1)})
    stats = drift_report(traj)["pos"]
    assert stats.initial == 0.0
    assert stats.max_relative_deviation == stats.max_abs_deviation
    assert stats.max_abs_deviation > 0.1


def test_rk4_fourth_order_convergence():
    ctx = PhaseContext(2, 1)
    # quartic anharmonic term keeps the energy error at the generic order
    H = ctx.p(1) ** 2 * Fraction(1, 2) + ctx.q(1) ** 2 * Fraction(1, 2) \
        + ctx.q(1) ** 4 * Fraction(1, 4)
    system = HamiltonianSystem.build(ctx, H)
    drifts = {}
    for step in (0.02, 0.01):
        traj = integrate(system, [1.0, 0.0], step, 10.0)
        drifts[step] = drift_report(traj)["H"].max_relative_deviation
    factor = drifts[0.02] / drifts[0.01]
    assert 8.0 < factor < 30.0


def test_random_hamiltonians_conserve_themselves():
    rng = random.Random(79)
    ctx = PhaseContext(2, 2)
    names = [v.name for v in ctx.state_vars()]
    from conftest import random_poly
    for _ in range(5):
        H = random_poly(ctx.registry, rng, names=names,
                        max_terms=3, max_degree=3)
        system = HamiltonianSystem.build(ctx, H)
        x0 = [rng.uniform(-0.3, 0.3) for _ in range(4)]
        traj = integrate(system, x0, 1e-3, 1.0)
        assert drift_report(traj)["H"].max_relative_deviation < 1e-8
