"""Fixed-step integration of the realised Hamiltonian systems.

Hamilton's equations are generated symbolically (exact partial
derivatives); floating point enters only when trajectories are stepped.
Each polynomial is compiled once into a flat arithmetic expression over a
state `s`, where `s[k]` is one slot of the state.

Stepping runs on plain Python floats: dq/dt and dp/dt compile into one
`lambda s: [...]` that returns every component of the right-hand side,
and each step is a few list comprehensions in the same float operation
order as the vector formulas of RK4 and leapfrog.  Each step is written
into a preallocated array.  Python raises OverflowError where a power
overflows; the rows from there on are NaN, so the run reports non-finite
drift instead of raising.

Sampling runs on whole columns: each observable's evaluator is called
once with `s = states.T`, so `s[k]` is the whole column of slot k and one
call evaluates the observable at every sample.

NumPy is imported inside `integrate` and `drift_report` only, so the exact
commands never load it.

Schemes: classical RK4 for any polynomial Hamiltonian, and leapfrog
(kick-drift-kick) when the Hamiltonian splits as T(p) + V(q), which is
detected from the monomial support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .coalgebra import PhaseContext
from .poly import BudgetExceeded, Polynomial, exponents

# Largest trajectory `integrate` allocates, in floats (800 MB): the times,
# the 2N state columns and one column per observable, at every sample.
MAX_TRAJECTORY_FLOATS = 10**8


def _expression(poly: Polynomial, slot_of: Mapping[int, int]) -> str:
    """The polynomial as a flat arithmetic expression over `s[slot]`."""
    if not poly.terms:
        return "0.0"
    chunks = []
    for mono, coeff in poly.sorted_terms():
        factors = [repr(float(coeff))]
        for idx, exp in exponents(mono):
            slot = slot_of[idx]
            factors.append(f"s[{slot}]" if exp == 1 else f"s[{slot}]**{exp}")
        chunks.append("*".join(factors))
    return " + ".join(chunks)


def _compile(body: str) -> Callable:
    source = "lambda s: " + body
    return eval(compile(source, "<polynomial>", "eval"), {"__builtins__": {}})


def compile_evaluator(poly: Polynomial,
                      slot_of: Mapping[int, int]) -> Callable:
    """Compile a polynomial into `lambda s: ...` over state slots.

    `s[k]` may be a float or a NumPy column; a constant polynomial
    evaluates to a float either way."""
    return _compile(_expression(poly, slot_of))


def _compile_vector(polys: Sequence[Polynomial],
                    slot_of: Mapping[int, int]) -> Callable:
    """Compile polynomials into one `lambda s: [e_0, e_1, ...]`."""
    return _compile(
        "[" + ", ".join(_expression(p, slot_of) for p in polys) + "]")


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    ctx: PhaseContext
    hamiltonian: Polynomial
    dq_dt: tuple[Polynomial, ...]  # dH/dp_k
    dp_dt: tuple[Polynomial, ...]  # -dH/dq_k

    @classmethod
    def build(cls, ctx: PhaseContext,
              hamiltonian: Polynomial) -> "HamiltonianSystem":
        ctx.check_phase(hamiltonian)
        dq = tuple(hamiltonian.partial(ctx.pvar(k))
                   for k in range(1, ctx.N + 1))
        dp = tuple(-hamiltonian.partial(ctx.qvar(k))
                   for k in range(1, ctx.N + 1))
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (samples, 2N), columns q1..qN, p1..pN
    observables: dict[str, np.ndarray]


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
    samples = t_end / step + 1  # a float, so a huge ratio cannot overflow
    width = 1 + twoN + len(obs)
    if samples * width > MAX_TRAJECTORY_FLOATS:
        raise BudgetExceeded(
            f"{samples:.4g} samples of {width} floats each exceed the "
            f"budget of {MAX_TRAJECTORY_FLOATS} floats")
    nsteps = int(round(t_end / step))

    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    if scheme == "rk4":
        rhs = _compile_vector(system.dq_dt + system.dp_dt, slot_of)
        steps = _rk4(rhs, state0, step, nsteps)
    else:
        steps = _leapfrog(_compile_vector(system.dp_dt, slot_of),
                          _compile_vector(system.dq_dt, slot_of),
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


@dataclass(frozen=True)
class DriftStats:
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
