"""Integrators: compiled evaluators vs exact evaluation, conservation on
closed orbits, separability detection, zero-length runs, the
fourth-order convergence of RK4 measured by step halving, and the
plain-float steppers and whole-column sampling against a row-by-row
NumPy reference.
"""

import importlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gnlab import (BudgetExceeded, HamiltonianSystem, PhaseContext,
                   Polynomial, compile_evaluator, drift_report,
                   harmonic_hamiltonian, integral_set, integrate,
                   parse_polynomial)
from gnlab.poly import exponents, monomial


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


def test_compiled_evaluator_handles_ten_thousand_terms_bit_for_bit():
    # One sum of this many terms is too deep for CPython's compiler; the
    # compiled sum must still be the left fold of the terms, bit for bit.
    ctx = PhaseContext(2, 2)
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    rng = random.Random(11)
    idxs = [v.index for v in ctx.state_vars()]
    terms = {monomial({i: (k // 10 ** j) % 10 for j, i in enumerate(idxs)}):
             Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 9))
             for k in range(10_000)}
    p = Polynomial(ctx.registry, terms)
    assert len(p.terms) == 10_000
    point = [rng.uniform(-1.2, 1.2) for _ in idxs]
    assert compile_evaluator(p, slot_of)(point) == \
        term_by_term(p, slot_of)(point)


def test_unit_coefficients_compile_without_a_factor(monkeypatch):
    # 1.0*x is x and a + -1.0*x is a - x in IEEE arithmetic, so dropping
    # the factor must leave every value bit for bit, in floats and columns
    dynamics_module = importlib.import_module("gnlab.dynamics")
    sources = []

    def keep_source(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(dynamics_module, "compile", keep_source,
                        raising=False)
    ctx = PhaseContext(2, 2)
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    idxs = [v.index for v in ctx.state_vars()]
    rng = random.Random(5)
    for signs in ((-1,), (1,), (-1, 1, 2, -1, Fraction(-1, 3), 1)):
        # 250 terms, so later sums start chunks with a unit term too
        p = Polynomial(ctx.registry, {
            monomial({i: (k // 4 ** j) % 4 for j, i in enumerate(idxs)}):
            signs[k % len(signs)] for k in range(250)})
        f = compile_evaluator(p, slot_of)
        assert "1.0*" not in sources[-1]
        ref = term_by_term(p, slot_of)
        for _ in range(20):
            point = [rng.choice((-0.0, 0.0, rng.uniform(-3, 3)))
                     for _ in idxs]
            assert math.copysign(1, f(point)) == \
                math.copysign(1, ref(point))
            assert f(point) == ref(point)
        cols = np.array([[rng.uniform(-3, 3) for _ in idxs]
                         for _ in range(5)]).T
        assert np.array_equal(f(cols), ref(cols))


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


def term_by_term(poly, slot_of):
    """An evaluator sharing no code with the compiler: at a state `s` (one
    float or one NumPy column per slot), float(coeff) times each factor
    (x**e for e >= 2) left to right, and the terms of `sorted_terms()`
    summed left to right."""
    terms = [(float(coeff), [(slot_of[i], e) for i, e in exponents(mono)])
             for mono, coeff in poly.sorted_terms()]

    def evaluate(s):
        total = None
        for value, factors in terms:
            for slot, e in factors:
                x = s[slot]
                value = value * (x if e == 1 else x ** e)
            total = value if total is None else total + value
        return 0.0 if total is None else total

    return evaluate


def reference_integrate(system, x0, step, t_end, scheme, observables):
    """The integrator the plain-float steppers replaced: RK4 and leapfrog on
    NumPy arrays with one term-by-term evaluator per component, called on
    each state as Python floats, and every observable evaluated on the
    whole columns of the states."""
    ctx = system.ctx
    twoN = 2 * ctx.N
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    dq = [term_by_term(p, slot_of) for p in system.dq_dt]
    dp = [term_by_term(p, slot_of) for p in system.dp_dt]
    obs = dict(observables)
    obs.setdefault("H", system.hamiltonian)
    obs_eval = {name: term_by_term(p, slot_of) for name, p in obs.items()}
    n = ctx.N
    nsteps = int(round(t_end / step))

    def rhs(s):
        out = np.empty(twoN)
        for k in range(n):
            out[k] = dq[k](s.tolist())
            out[n + k] = dp[k](s.tolist())
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
                s[n + k] += 0.5 * step * dp[k](s.tolist())
            for k in range(n):
                s[k] += step * dq[k](s.tolist())
            for k in range(n):
                s[n + k] += 0.5 * step * dp[k](s.tolist())
        states[i + 1] = s
    sampled = {name: np.broadcast_to(fn(states.T), (nsteps + 1,))
               for name, fn in obs_eval.items()}
    return states, sampled


@pytest.mark.parametrize("scheme, H", [("rk4", "xp - xm + xm^2 + xp*xm"),
                                       ("rk4", "xp - xm + xm^2 + xp^2 + h^3"),
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
    assert np.isfinite(states).all()
    assert np.array_equal(traj.states, states)
    assert traj.observables.keys() == sampled.keys()
    for name, values in sampled.items():
        assert values.shape == (201,)
        assert np.array_equal(traj.observables[name], values), name


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
