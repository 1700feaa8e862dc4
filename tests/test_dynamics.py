"""Integrators: compiled evaluators vs exact evaluation, conservation on
closed orbits, separability detection, zero-length runs, the
fourth-order convergence of RK4 measured by step halving, and the
plain-float steppers and whole-column sampling against a row-by-row
NumPy reference.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gnlab import (BudgetExceeded, HamiltonianSystem, PhaseContext,
                   compile_evaluator, drift_report, harmonic_hamiltonian,
                   integral_set, integrate, parse_polynomial)


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
    for step, t_end, x0 in ((math.nan, 1.0, [0.0, 1.0]),
                            (math.inf, 1.0, [0.0, 1.0]),
                            (1e-2, math.nan, [0.0, 1.0]),
                            (1e-2, math.inf, [0.0, 1.0]),
                            (1e-2, 1.0, [math.nan, 1.0]),
                            (1e-2, 1.0, [0.0, -math.inf])):
        with pytest.raises(ValueError, match="finite"):
            integrate(system, x0, step, t_end)


def test_trajectory_budget_is_checked_before_allocating(monkeypatch):
    ctx, system = oscillator()

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a trajectory over the budget")

    monkeypatch.setattr(np, "empty", no_allocation)
    for step, t_end in ((1e-9, 10.0), (1e-300, 1e300)):
        with pytest.raises(BudgetExceeded, match="budget"):
            integrate(system, [0.0, 1.0], step, t_end)


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
    obs = {f"m{m}": p for m, p in integral_set(ctx, "left").items()}
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


def reference_integrate(system, x0, step, t_end, scheme, observables):
    """The row-by-row integrator the plain-float steppers replaced: RK4 and
    leapfrog on NumPy arrays with one compiled lambda per component, and
    every observable evaluated once per row."""
    ctx = system.ctx
    twoN = 2 * ctx.N
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    dq = [compile_evaluator(p, slot_of) for p in system.dq_dt]
    dp = [compile_evaluator(p, slot_of) for p in system.dp_dt]
    obs = dict(observables)
    obs.setdefault("H", system.hamiltonian)
    obs_eval = {name: compile_evaluator(p, slot_of)
                for name, p in obs.items()}
    n = ctx.N
    nsteps = int(round(t_end / step))

    def rhs(s):
        out = np.empty(twoN)
        for k in range(n):
            out[k] = dq[k](s)
            out[n + k] = dp[k](s)
        return out

    state0 = np.asarray(x0, dtype=float)
    states = np.empty((nsteps + 1, twoN))
    states[0] = state0
    s = state0.copy()
    for i in range(nsteps):
        if scheme == "rk4":
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * step * k1)
            k3 = rhs(s + 0.5 * step * k2)
            k4 = rhs(s + step * k3)
            s = s + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            for k in range(n):
                s[n + k] += 0.5 * step * dp[k](s)
            for k in range(n):
                s[k] += step * dq[k](s)
            for k in range(n):
                s[n + k] += 0.5 * step * dp[k](s)
        states[i + 1] = s
    sampled = {name: np.array([fn(states[i]) for i in range(nsteps + 1)])
               for name, fn in obs_eval.items()}
    return states, sampled


@pytest.mark.parametrize("scheme, H", [("rk4", "xp - xm + xm^2 + xp*xm"),
                                       ("leapfrog", "xp - xm + xm^2")])
@pytest.mark.parametrize("alpha_seed", [1, 2, 3])
def test_steppers_match_the_row_by_row_reference(scheme, H, alpha_seed):
    ctx = PhaseContext.seeded(3, 4, alpha_seed)
    system = HamiltonianSystem.build(
        ctx, ctx.realize_poly(parse_polynomial(H, ctx.registry)))
    obs = {f"{side}_m{m}": p
           for side in ("left", "right")
           for m, p in integral_set(ctx, side).items()}
    rng = random.Random(alpha_seed)
    x0 = [round(rng.uniform(-0.5, 0.5), 4) for _ in range(8)]
    traj = integrate(system, x0, 1e-2, 2.0, scheme=scheme, observables=obs)
    states, sampled = reference_integrate(system, x0, 1e-2, 2.0, scheme, obs)
    assert np.array_equal(traj.states, states)
    assert traj.observables.keys() == sampled.keys()
    for name, values in sampled.items():
        assert values.shape == (201,)
        scale = np.maximum(np.abs(values), np.finfo(float).tiny)
        assert np.all(np.abs(traj.observables[name] - values) / scale
                      <= 1e-14), name


@pytest.mark.parametrize("t_end", [0.0, 0.5])
def test_constant_and_zero_observables_sample_every_row(t_end):
    ctx, system = oscillator()
    zero = ctx.q(1) - ctx.q(1)
    assert not zero.terms
    traj = integrate(system, [0.3, -0.2], 1e-2, t_end,
                     observables={"zero": zero, "three": zero + 3})
    samples = traj.times.shape[0]
    assert samples == int(round(t_end / 1e-2)) + 1
    assert np.array_equal(traj.observables["zero"], np.zeros(samples))
    assert np.array_equal(traj.observables["three"], np.full(samples, 3.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_orbit_leaves_non_finite_rows():
    ctx = PhaseContext(2, 3)
    H = ctx.realize_poly(parse_polynomial("xp + xm^3", ctx.registry))
    traj = integrate(HamiltonianSystem.build(ctx, H),
                     [3.0, 3.0, 3.0, 0.0, 0.0, 0.0], 1e-2, 5.0)
    assert traj.states.shape == (501, 6)
    finite = np.isfinite(traj.states).all(axis=1)
    assert finite[0] and not finite[-1]
    first_bad = int(np.argmin(finite))
    assert not np.isfinite(traj.states[first_bad:]).any()
    assert not math.isfinite(drift_report(traj)["H"].max_relative_deviation)
