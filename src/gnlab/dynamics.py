"""Fixed-step integration of the realised Hamiltonian systems.

Hamilton's equations are generated symbolically (exact partial
derivatives); floating point enters only when trajectories are stepped.
Each polynomial is compiled once into a flat arithmetic expression over
the state vector, so sampling every observable at every step stays cheap.

Schemes: classical RK4 for any polynomial Hamiltonian, and leapfrog
(kick-drift-kick) when the Hamiltonian splits as T(p) + V(q), which is
detected from the monomial support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .coalgebra import PhaseContext
from .poly import Polynomial, exponents


def compile_evaluator(poly: Polynomial,
                      slot_of: Mapping[int, int]) -> Callable[[np.ndarray], float]:
    """Compile a polynomial into `lambda s: ...` over state slots."""
    if not poly.terms:
        return lambda s: 0.0
    chunks = []
    for mono, coeff in poly.sorted_terms():
        factors = [repr(float(coeff))]
        for idx, exp in exponents(mono):
            slot = slot_of[idx]
            factors.append(f"s[{slot}]" if exp == 1 else f"s[{slot}]**{exp}")
        chunks.append("*".join(factors))
    source = "lambda s: " + " + ".join(chunks)
    return eval(compile(source, "<polynomial>", "eval"), {"__builtins__": {}})


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    ctx: PhaseContext
    hamiltonian: Polynomial
    dq_dt: tuple[Polynomial, ...]  # dH/dp_k
    dp_dt: tuple[Polynomial, ...]  # -dH/dq_k

    @classmethod
    def build(cls, ctx: PhaseContext,
              hamiltonian: Polynomial) -> "HamiltonianSystem":
        if hamiltonian.registry is not ctx.registry:
            raise ValueError("Hamiltonian belongs to a different context")
        foreign = hamiltonian.support_indices() - ctx.phase_indices()
        if foreign:
            names = ", ".join(sorted(ctx.registry.name_of(i) for i in foreign))
            raise ValueError(f"non-phase variables present: {names}")
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


def integrate(system: HamiltonianSystem, x0, step: float, t_end: float,
              scheme: str = "rk4",
              observables: Mapping[str, Polynomial] | None = None) -> Trajectory:
    """Integrate from the initial state (q1..qN, p1..pN floats), sampling
    every observable at every step.  t_end = 0 returns the initial sample."""
    ctx = system.ctx
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    twoN = 2 * ctx.N
    state0 = np.asarray([float(v) for v in x0], dtype=float)
    if state0.shape != (twoN,):
        raise ValueError(f"initial state must have {twoN} components")
    slot_of = {v.index: i for i, v in enumerate(ctx.state_vars())}
    dq = [compile_evaluator(p, slot_of) for p in system.dq_dt]
    dp = [compile_evaluator(p, slot_of) for p in system.dp_dt]
    obs = dict(observables) if observables else {}
    obs.setdefault("H", system.hamiltonian)
    obs_eval = {name: compile_evaluator(p, slot_of)
                for name, p in obs.items()}

    n = ctx.N
    nsteps = int(round(t_end / step))

    def rhs(s: np.ndarray) -> np.ndarray:
        out = np.empty(twoN)
        for k in range(n):
            out[k] = dq[k](s)
            out[n + k] = dp[k](s)
        return out

    states = np.empty((nsteps + 1, twoN))
    states[0] = state0
    if scheme == "rk4":
        s = state0.copy()
        for i in range(nsteps):
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * step * k1)
            k3 = rhs(s + 0.5 * step * k2)
            k4 = rhs(s + step * k3)
            s = s + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[i + 1] = s
    elif scheme == "leapfrog":
        if not system.is_separable():
            raise ValueError(
                "leapfrog requires a Hamiltonian that splits as T(p) + V(q)")
        s = state0.copy()
        for i in range(nsteps):
            for k in range(n):
                s[n + k] += 0.5 * step * dp[k](s)
            for k in range(n):
                s[k] += step * dq[k](s)
            for k in range(n):
                s[n + k] += 0.5 * step * dp[k](s)
            states[i + 1] = s
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    times = np.arange(nsteps + 1) * step
    sampled = {name: np.array([fn(states[i]) for i in range(nsteps + 1)])
               for name, fn in obs_eval.items()}
    return Trajectory(times=times, states=states, observables=sampled)


@dataclass(frozen=True)
class DriftStats:
    initial: float
    max_abs_deviation: float
    max_relative_deviation: float


def drift_report(traj: Trajectory) -> dict[str, DriftStats]:
    """Per-observable conservation drift; relative deviations are measured
    against max(|initial value|, 1)."""
    out: dict[str, DriftStats] = {}
    for name, values in traj.observables.items():
        initial = float(values[0])
        dev = float(np.max(np.abs(values - initial))) if len(values) else 0.0
        rel = dev / max(abs(initial), 1.0)
        out[name] = DriftStats(initial=initial, max_abs_deviation=dev,
                               max_relative_deviation=rel)
    return out
