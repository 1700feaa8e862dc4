"""The benchmark's workloads: seeded inputs, command lines and output checks.

Each workload turns a benchmark seed into the files and arguments a user
would pass to ``gnlab`` (an α parameter file, an initial state), and checks
the output of every run against values that do not depend on the seed.
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Term counts of C_n = -det M_n and the SHA-256 of its canonical JSON
# (``json.dumps(payload["polynomial"], sort_keys=True, separators=(",", ":"))``),
# recorded from `gnlab casimir --n N --format json` at the commit that
# introduced the benchmark.
CASIMIR = {
    3: (5, "c2c2441104bfd495635fc3af66cf07eb80a2175334446b608613ea03235efa88"),
    4: (17, "b46fb39d31e715607ad823ce90865f5ff8eda894f7ea1b681541d26c0935c534"),
    5: (73, "44274c2d3c1cf506af76ce25029dc7a6366e39f7458f4a7eab73632dbcbbb986"),
    6: (388, "464f6666019fb6a25aa2efafec9c2b173ac4a5f571ef8355306125d3b3be904f"),
    9: (152531,
        "8c5a00781d2be95dbbace54b2dcedbb22e51115b7b05ce77964005878040ac3e"),
}

VERIFY_CHECKS = (
    "jacobi", "subalgebra_chain", "levi_split", "structure",
    "faithful_representation", "quotient_representation", "coadjoint_fields",
    "annihilation", "intertwining", "grading", "uniqueness", "realization",
    "route_equivalence", "vanishing", "involution", "independence")

HAMILTONIAN = "xp - xm + xm^2 + xp*xm"
# Realised, H = P/2 + Q/2 + Q^2/4 - PQ/4 with Q = sum q_k^2, P = sum p_k^2.
# dQ/dt is proportional to 1 - Q/2, so Q = 2 is invariant; a start beyond
# it has a negative kinetic term and escapes to infinity (the run ends in
# overflow, exit 1).  Starts are redrawn until Q < Q_START_LIMIT, which
# keeps every trajectory bounded with a margin.
Q_START_LIMIT = 1.5


def triangular(k: int) -> int:
    return k * (k + 1) // 2


def strict_json(text: str):
    """Parse JSON, rejecting the bare NaN and Infinity that Python emits."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def alpha_rows(rng: random.Random, count: int, N: int) -> list[list[Fraction]]:
    """Nonzero rationals with denominators up to 4, redrawn until the rows
    are independent, so the window integrals do not vanish."""
    while True:
        rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 4)) for _ in range(N)]
                for _ in range(count)]
        if _rank(rows) == count:
            return rows


def write_config(path: Path, rows: list[list[Fraction]]) -> None:
    path.write_text("".join(
        f"alpha.{i} = [{', '.join(str(v) for v in row)}]\n"
        for i, row in enumerate(rows, 1)), encoding="utf-8")


class Workload:
    """One gnlab command line.  ``prepare`` writes the seeded inputs into
    ``work`` and returns the argv after ``gnlab``; ``probe`` is the argv
    of bench/probe.py that builds the same algebra and context."""

    name: str

    def prepare(self, seed: int, work: Path) -> list[str]:
        raise NotImplementedError

    def probe(self) -> list[str]:
        raise NotImplementedError

    def out_files(self, work: Path) -> list[Path]:
        """Files the command writes besides stdout."""
        return []

    def check(self, code: int, stdout: bytes, work: Path) -> list[str]:
        raise NotImplementedError


class Verify(Workload):
    def __init__(self, name: str, n: int, N: int):
        self.name, self.n, self.N = name, n, N

    def prepare(self, seed, work):
        rng = random.Random(f"{self.name}:{seed}")
        self.rows = alpha_rows(rng, self.n - 2, self.N)
        self.seed = rng.randint(0, 10 ** 6)
        write_config(work / "alpha.cfg", self.rows)
        return ["verify", "--n", str(self.n), "--N", str(self.N),
                "--seed", str(self.seed), "--config",
                str(work / "alpha.cfg"), "--format", "json"]

    def probe(self):
        return [str(self.n), str(self.N),
                json.dumps([[str(v) for v in r] for r in self.rows])]

    def check(self, code, stdout, work):
        if code != 0:
            return [f"exit code {code}"]
        try:
            out = strict_json(stdout.decode("utf-8"))
        except ValueError as exc:
            return [f"bad JSON: {exc}"]
        n, N, t = self.n, self.N, triangular(self.n - 2)
        problems = []
        if out.get("passed") is not True:
            problems.append("passed is not true")
        alpha = {str(i): [str(v) for v in r]
                 for i, r in enumerate(self.rows, 1)}
        if out.get("alpha") != alpha:
            problems.append("alpha echo differs from the config")
        checks = {c.get("check"): c for c in out.get("checks", [])}
        missing = [c for c in VERIFY_CHECKS if c not in checks]
        if missing or len(out.get("checks", [])) != len(VERIFY_CHECKS):
            return problems + [f"checks missing or extra: {missing}"]
        problems += [f"{c} did not pass" for c in VERIFY_CHECKS
                     if checks[c].get("passed") is not True]
        expect = {
            ("structure", "centre_dim"): t,
            ("structure", "commutator_rank"): 2 * (n - 1),
            ("structure", "nu"): t + 1,
            ("faithful_representation", "kernel_dim"): 0,
            ("quotient_representation", "kernel_dim"): t,
            ("annihilation", "terms"): CASIMIR[n][0],
            ("uniqueness", "dimensions"): {
                str(d): math.comb(t + d - 1, d)
                for d in range(1, min(n - 1, 4) + 1)},
            ("route_equivalence", "windows"): 2 * (N - n + 1),
            ("independence", "rank"): checks["independence"].get("expected"),
            ("independence", "expected"): 2 * (N - n) + 2,
        }
        for (check, key), value in expect.items():
            if checks[check].get(key) != value:
                problems.append(f"{check}.{key} = {checks[check].get(key)!r}"
                                f", expected {value!r}")
        return problems


class Casimir(Workload):
    def __init__(self, name: str, n: int):
        self.name, self.n = name, n

    def prepare(self, seed, work):
        return ["casimir", "--n", str(self.n), "--format", "json"]

    def probe(self):
        return [str(self.n)]

    def check(self, code, stdout, work):
        if code != 0:
            return [f"exit code {code}"]
        try:
            out = strict_json(stdout.decode("utf-8"))
        except ValueError as exc:
            return [f"bad JSON: {exc}"]
        terms, digest = CASIMIR[self.n]
        problems = []
        if out.get("terms") != terms:
            problems.append(f"terms = {out.get('terms')!r}, expected {terms}")
        if out.get("degree") != self.n:
            problems.append(f"degree = {out.get('degree')!r}")
        poly = json.dumps(out.get("polynomial"), sort_keys=True,
                          separators=(",", ":"))
        if hashlib.sha256(poly.encode("utf-8")).hexdigest() != digest:
            problems.append("polynomial differs from the recorded SHA-256")
        return problems


class Simulate(Workload):
    def __init__(self, name: str, n: int, N: int, t_end: float = 10.0,
                 step: float = 1e-3):
        self.name, self.n, self.N = name, n, N
        self.t_end, self.step = t_end, step

    def prepare(self, seed, work):
        rng = random.Random(f"{self.name}:{seed}")
        self.rows = alpha_rows(rng, self.n - 2, self.N)
        while True:
            self.x0 = [round(rng.uniform(-1.0, 1.0), 4)
                       for _ in range(2 * self.N)]
            if sum(q * q for q in self.x0[:self.N]) < Q_START_LIMIT:
                break
        write_config(work / "alpha.cfg", self.rows)
        # "--x0=" keeps argparse from reading a leading "-0.3" as a flag.
        return ["simulate", "--n", str(self.n), "--N", str(self.N),
                "--config", str(work / "alpha.cfg"),
                "--x0=" + ",".join(repr(v) for v in self.x0),
                "--H", HAMILTONIAN, "--step", repr(self.step),
                "--t-end", repr(self.t_end), "--out", str(work / "traj.csv")]

    def probe(self):
        return [str(self.n), str(self.N),
                json.dumps([[str(v) for v in r] for r in self.rows])]

    def out_files(self, work):
        return [work / "traj.csv"]

    def check(self, code, stdout, work):
        if code != 0:
            return [f"exit code {code}"]
        try:
            out = strict_json(stdout.decode("utf-8"))
        except ValueError as exc:
            return [f"bad JSON: {exc}"]
        samples = round(self.t_end / self.step) + 1
        names = (["H"] + [f"left_m{m}" for m in range(self.n, self.N + 1)]
                 + [f"right_m{m}" for m in range(self.n, self.N)])
        problems = []
        if out.get("passed") is not True:
            problems.append("passed is not true")
        if out.get("samples") != samples:
            problems.append(f"samples = {out.get('samples')!r}")
        if out.get("x0") != self.x0:
            problems.append("x0 echo differs from the input")
        drift = out.get("drift", {})
        if sorted(drift) != sorted(names):
            problems.append(f"drift observables {sorted(drift)}")
        threshold = out.get("threshold")
        for name, d in drift.items():
            rel = d.get("max_relative_deviation")
            if not (isinstance(rel, float) and math.isfinite(rel)
                    and rel <= threshold):
                problems.append(f"drift of {name} is {rel!r}")
        try:
            with open(work / "traj.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return problems + [f"no trajectory: {exc}"]
        width = 1 + 2 * self.N + len(names)  # t, q, p, observables
        if len(rows) != samples + 1:
            problems.append(f"CSV has {len(rows)} lines")
        if any(len(r) != width for r in rows):
            problems.append(f"CSV rows are not all {width} columns wide")
        elif not all(math.isfinite(float(v)) for r in rows[1:] for v in r):
            problems.append("CSV holds a non-finite value")
        return problems


WORKLOADS = {w.name: w for w in (
    Verify("verify-n6", 6, 6),
    Casimir("casimir-n9", 9),
    Simulate("simulate-n4", 4, 6),
)}

# The same shapes at sizes that run in a second or two, for bench/selftest.py.
SMOKE = {w.name: w for w in (
    Verify("verify-n3", 3, 4),
    Casimir("casimir-n5", 5),
    Simulate("simulate-n2", 2, 3, t_end=0.5),
)}
