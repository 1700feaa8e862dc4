"""Fixed-step integration of the realised Hamiltonian systems.

Hamilton's equations are generated symbolically (exact partial
derivatives); floating point enters only when trajectories are stepped.
Polynomials are compiled once into a generated `def f(s)`, where `s`
holds one value per state slot.  f unpacks the slots into locals, computes
each power a term uses once (`s3_2 = s3**2`), and sums the terms left to
right in canonical order, in statements of a bounded number of terms so
that CPython's compiler takes a sum of any length.  Computing a power once
or many times gives the same float, so hoisting changes no result.

Stepping runs on plain Python floats: dq/dt and dp/dt compile into one f
that returns every component of the right-hand side as a list, and each
step is a few list comprehensions in the same float operation order as
the vector formulas of RK4 and leapfrog.  Each step is written into a
preallocated array.  Python raises OverflowError where a power
overflows; the rows from there on are NaN, so the run reports non-finite
drift instead of raising.

Sampling runs on whole columns: each observable's evaluator is called
once with `s = states.T`, so each slot is a whole column and one call
evaluates the observable at every sample.

NumPy is imported inside `integrate` and `drift_report` only, so the exact
commands never load it.

Schemes: classical RK4 for any polynomial Hamiltonian, and leapfrog
(kick-drift-kick) when the Hamiltonian splits as T(p) + V(q), which is
detected from the monomial support.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .coalgebra import PhaseContext
from .poly import BudgetExceeded, Polynomial, exponents

# Largest trajectory `integrate` allocates, in floats (800 MB): the times,
# the 2N state columns and one column per observable, at every sample.
MAX_TRAJECTORY_FLOATS = 10**8


# Most terms one generated statement sums: CPython's compiler recurses once
# per `+`, so a single sum of a few thousand terms overflows its stack.
SUM_CHUNK = 100


def _compile(polys: Sequence[Polynomial],
             slot_of: Mapping[int, int]) -> Callable:
    """Compile polynomials into one `def f(s)` over state slots (see the
    module docstring) that returns the list of their values."""
    powers: dict[str, str] = {}
    sums: list[str] = []
    values = []
    for i, poly in enumerate(polys):
        terms = []
        for mono, coeff in poly.sorted_terms():
            factors = []
            for idx, exp in exponents(mono):
                name = f"s{slot_of[idx]}"
                if exp > 1:
                    powers[f"{name}_{exp}"] = f"{name}**{exp}"
                    name += f"_{exp}"
                factors.append(name)
            # a + -c*x is a - c*x and 1.0*x is x, exactly
            c = abs(float(coeff))
            if c != 1.0 or not factors:
                factors.insert(0, repr(c))
            terms.append((" - " if coeff < 0 else " + ") + "*".join(factors))
        head, *rest = ["".join(terms[j:j + SUM_CHUNK])
                       for j in range(0, len(terms), SUM_CHUNK)] or [" + 0.0"]
        # the first operator becomes the sign of the first term
        head = head[3:] if head[1] == "+" else "-" + head[3:]
        if rest:
            sums.append(f"r{i} = {head}")
            sums += [f"r{i} = r{i}{chunk}" for chunk in rest]
            head = f"r{i}"
        values.append(head)
    slots = [f"s{k}" for k in range(max(slot_of.values(), default=-1) + 1)]
    body = [", ".join(slots) + ", = s"] if slots else []
    body += [f"{name} = {power}" for name, power in powers.items()] + sums
    source = "def f(s):\n" + "".join(
        f"    {line}\n" for line in body + [f"return [{', '.join(values)}]"])
    namespace: dict = {}
    exec(compile(source, "<polynomial>", "exec"), {"__builtins__": {}},
         namespace)
    return namespace["f"]


def compile_evaluator(poly: Polynomial,
                      slot_of: Mapping[int, int]) -> Callable:
    """Compile a polynomial into `def f(s)` over state slots.

    `s` holds one float or one NumPy column per slot; a constant
    polynomial evaluates to a float either way."""
    f = _compile([poly], slot_of)
    return lambda s: f(s)[0]


class HamiltonianSystem:
    def __init__(self, ctx: PhaseContext, hamiltonian: Polynomial,
                 dq_dt: tuple[Polynomial, ...], dp_dt: tuple[Polynomial, ...]):
        self.ctx = ctx
        self.hamiltonian = hamiltonian
        self.dq_dt = dq_dt  # dH/dp_k
        self.dp_dt = dp_dt  # -dH/dq_k

    @classmethod
    def build(cls, ctx: PhaseContext,
              hamiltonian: Polynomial) -> "HamiltonianSystem":
        """Raise ValueError where a coefficient of H or of one of its
        partials, which the integrator turns into floats, is beyond float
        range."""
        ctx.check_phase(hamiltonian)
        dq = tuple(hamiltonian.partial(ctx.pvar(k))
                   for k in range(1, ctx.N + 1))
        dp = tuple(-hamiltonian.partial(ctx.qvar(k))
                   for k in range(1, ctx.N + 1))
        for poly in (hamiltonian, *dq, *dp):
            for coeff in poly.terms.values():
                try:
                    float(coeff)
                except OverflowError:
                    raise ValueError(
                        "a coefficient of H or of its partials is beyond "
                        "float range") from None
        return cls(ctx, hamiltonian, dq, dp)

    def is_separable(self) -> bool:
        """True when every monomial involves only q or only p variables."""
        qset = {v.index for v in self.ctx.state_vars()[:self.ctx.N]}
        pset = {v.index for v in self.ctx.state_vars()[self.ctx.N:]}
        for mono in self.hamiltonian.terms:
            idxs = {i for i, _ in exponents(mono)}
            if idxs & qset and idxs & pset:
                return False
        return True


class Trajectory:
    def __init__(self, times: np.ndarray, states: np.ndarray,
                 observables: dict[str, np.ndarray]):
        self.times = times
        self.states = states  # shape (samples, 2N), columns q1..qN, p1..pN
        self.observables = observables


def _rk4(f: Callable, s: list[float], step: float,
         nsteps: int) -> Iterator[list[float]]:
    h2 = 0.5 * step
    h6 = step / 6.0
    for _ in range(nsteps):
        k1 = f(s)
        k2 = f([a + h2 * b for a, b in zip(s, k1)])
        k3 = f([a + h2 * b for a, b in zip(s, k2)])
        k4 = f([a + step * b for a, b in zip(s, k3)])
        s = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
        yield s


def _leapfrog(kick: Callable, drift: Callable, s: list[float], n: int,
              step: float, nsteps: int) -> Iterator[list[float]]:
    # kick (dp/dt) reads only q and drift (dq/dt) only p, because the
    # Hamiltonian is separable; so each half step updates a whole half.
    h2 = 0.5 * step
    q, p = s[:n], s[n:]
    for _ in range(nsteps):
        p = [a + h2 * b for a, b in zip(p, kick(q + p))]
        q = [a + step * b for a, b in zip(q, drift(q + p))]
        p = [a + h2 * b for a, b in zip(p, kick(q + p))]
        yield q + p


def check_trajectory_budget(N: int, step: float, t_end: float,
                            n_observables: int) -> None:
    """Raise BudgetExceeded when a trajectory of 2N slots and
    `n_observables` observables, sampled every `step` up to `t_end`, would
    hold more than MAX_TRAJECTORY_FLOATS floats."""
    samples = t_end / step + 1  # a float, so a huge ratio cannot overflow
    width = 1 + 2 * N + n_observables
    if samples * width > MAX_TRAJECTORY_FLOATS:
        raise BudgetExceeded(
            f"{samples:.4g} samples of {width} floats each exceed the "
            f"budget of {MAX_TRAJECTORY_FLOATS} floats")


def integrate(system: HamiltonianSystem, x0, step: float, t_end: float,
              scheme: str = "rk4",
              observables: Mapping[str, Polynomial] | None = None) -> Trajectory:
    """Integrate from the initial state (q1..qN, p1..pN floats), sampling
    every observable at every step.  t_end = 0 returns the initial sample.

    Raises BudgetExceeded, before allocating, when the trajectory would
    hold more than MAX_TRAJECTORY_FLOATS floats."""
    import numpy as np

    ctx = system.ctx
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be nonnegative and finite")
    twoN = 2 * ctx.N
    state0 = [float(v) for v in x0]
    if len(state0) != twoN:
        raise ValueError(f"initial state must have {twoN} components")
    if not all(map(math.isfinite, state0)):
        raise ValueError("initial state must be finite")
    if scheme not in ("rk4", "leapfrog"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "leapfrog" and not system.is_separable():
        raise ValueError(
            "leapfrog requires a Hamiltonian that splits as T(p) + V(q)")
    obs = dict(observables) if observables else {}
    obs.setdefault("H", system.hamiltonian)
    check_trajectory_budget(ctx.N, step, t_end, len(obs))
    nsteps = int(round(t_end / step))

    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    if scheme == "rk4":
        rhs = _compile(system.dq_dt + system.dp_dt, slot_of)
        steps = _rk4(rhs, state0, step, nsteps)
    else:
        steps = _leapfrog(_compile(system.dp_dt, slot_of),
                          _compile(system.dq_dt, slot_of),
                          state0, ctx.N, step, nsteps)
    states = np.empty((nsteps + 1, twoN))
    states[0] = state0
    row = 0
    try:
        for row, s in enumerate(steps, 1):
            states[row] = s
    except OverflowError:  # a float power overflowed: the orbit diverged
        states[row + 1:] = np.nan

    times = np.arange(nsteps + 1) * step
    columns = states.T
    sampled = {}
    for name, p in obs.items():
        values = np.empty(nsteps + 1)
        values[:] = compile_evaluator(p, slot_of)(columns)
        sampled[name] = values
    return Trajectory(times=times, states=states, observables=sampled)


class DriftStats(NamedTuple):
    initial: float
    max_abs_deviation: float
    max_relative_deviation: float


def drift_report(traj: Trajectory) -> dict[str, DriftStats]:
    """Per-observable conservation drift; relative deviations are measured
    against max(|initial value|, 1)."""
    import numpy as np

    out: dict[str, DriftStats] = {}
    for name, values in traj.observables.items():
        initial = float(values[0])
        dev = float(np.max(np.abs(values - initial))) if len(values) else 0.0
        rel = dev / max(abs(initial), 1.0)
        out[name] = DriftStats(initial=initial, max_abs_deviation=dev,
                               max_relative_deviation=rel)
    return out
