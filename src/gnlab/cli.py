"""Command-line interface.

Subcommands: casimir, verify, integrals, simulate, dump-rep, rank, ansatz.
Exit codes: 0 success, 1 verification or conservation failure, 2 usage or
configuration error, an exceeded size budget, an unwritable output file,
or an arithmetic or memory error.  JSON output carries a schema version and
is byte-identical across runs with the same configuration and seeds; the
GN_LAB_SEED environment variable overrides --seed when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (build_gn, check_jacobi, check_levi,
                      check_subalgebra_chain, check_structure, triangular)
from .casimir import casimir, check_grading, check_uniqueness, solve_ansatz
from .casimir import verify_annihilation, verify_intertwining
from .coalgebra import (PhaseContext, check_independence, check_involution,
                        check_realization_homomorphism,
                        check_route_equivalence, check_vanishing,
                        integral_family, integral_set, window)
from .dynamics import (HamiltonianSystem, check_trajectory_budget,
                       drift_report, integrate)
from .poly import (BudgetExceeded, MissingVariable, Polynomial,
                   parse_polynomial)
from .representations import (build_faithful_rep, build_quotient_rep,
                              check_field_homomorphism, check_homomorphism)
from .reports import Report

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    n: int
    N: int | None
    seed: int
    alpha_seed: int
    alpha_rows: dict[int, list[Fraction]] | None
    ceiling_n: int
    fmt: str
    out: str | None


def _parse_config_file(path: str) -> dict:
    """Key/value config text: `alpha.<i> = [a, b, ...]`, `seed = <int>`,
    `alpha_seed = <int>`; values are rationals like 3 or -1/2."""
    opts: dict = {"alpha": {}}
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"config line {lineno}: expected key = value")
        key = key.strip()
        value = value.strip()
        if key.startswith("alpha."):
            try:
                i = int(key[6:])
            except ValueError:
                raise UsageError(f"config line {lineno}: bad row index") from None
            if not (value.startswith("[") and value.endswith("]")):
                raise UsageError(f"config line {lineno}: expected [a, b, ...]")
            items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
            try:
                opts["alpha"][i] = [Fraction(v) for v in items]
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"config line {lineno}: bad rational") from None
        elif key in ("seed", "alpha_seed", "alpha-seed"):
            try:
                opts[key.replace("-", "_")] = int(value)
            except ValueError:
                raise UsageError(f"config line {lineno}: bad integer") from None
        else:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
    return opts


def _resolve_config(args, need_N: bool) -> RunConfig:
    file_opts = _parse_config_file(args.config) if args.config else {"alpha": {}}
    seed = file_opts.get("seed", args.seed)
    env_seed = os.environ.get("GN_LAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise UsageError(f"GN_LAB_SEED must be an integer, got {env_seed!r}")
    alpha_seed = file_opts.get("alpha_seed", getattr(args, "alpha_seed", 1))
    n = args.n
    if n < 2:
        raise UsageError("the chain starts at n = 2")
    N = getattr(args, "N", None)
    if need_N:
        if N is None:
            # default phase size n+1, held at 6 to keep default runs quick
            N = min(n + 1, 6) if n < 6 else n
        if N < 1:
            raise UsageError("N must be at least 1")
    alpha_rows = file_opts["alpha"] or None
    if alpha_rows is not None:
        missing = [i for i in range(1, n - 1) if i not in alpha_rows]
        if missing:
            raise UsageError(f"config lacks alpha rows {missing}")
    return RunConfig(command=args.command, n=n, N=N, seed=seed,
                     alpha_seed=alpha_seed, alpha_rows=alpha_rows,
                     ceiling_n=args.ceiling_n, fmt=args.format,
                     out=args.out)


def _context(cfg: RunConfig) -> PhaseContext:
    if cfg.alpha_rows is not None:
        return PhaseContext(cfg.n, cfg.N, cfg.alpha_rows)
    return PhaseContext.seeded(cfg.n, cfg.N, alpha_seed=cfg.alpha_seed)


def _header(cfg: RunConfig, ctx: PhaseContext | None = None) -> dict:
    """The keys every payload carries; a command with a phase space adds N
    and the parameter rows."""
    head = {"schema": SCHEMA_VERSION, "command": cfg.command, "n": cfg.n,
            "seed": cfg.seed}
    if ctx is not None:
        head["N"] = ctx.N
        head["alpha_seed"] = \
            None if cfg.alpha_rows is not None else cfg.alpha_seed
        head["alpha"] = {str(i): [str(v) for v in row]
                         for i, row in sorted(ctx.alpha_rows.items())}
    return head


# A polynomial's place in the envelope, and that place as json.dumps writes it
_SLOT = "\0polynomial {}\0"
_SLOT_JSON = re.compile(r'"\\u0000polynomial (\d+)\\u0000"')


def _json_writer(payload):
    """A function writing `payload` as ``json.dumps(indent=2,
    sort_keys=True)`` text into a `write` callable.

    Each Polynomial in the payload is swapped for a numbered placeholder
    and the envelope left is dumped here, before anything is written.
    The writer then streams the envelope text, and each polynomial's own
    `to_json` text where its placeholder was, indented like that line."""
    polys: list[Polynomial] = []

    def swap(value):
        if isinstance(value, Polynomial):
            polys.append(value)
            return _SLOT.format(len(polys) - 1)
        if isinstance(value, dict):
            return {k: swap(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [swap(v) for v in value]
        return value

    pieces = _SLOT_JSON.split(json.dumps(swap(payload), indent=2,
                                         sort_keys=True, allow_nan=False))
    # pieces alternate: envelope text, slot number, envelope text, ...
    slots = [int(k) for k in pieces[1::2]]
    if sorted(slots) != list(range(len(polys))):
        raise RuntimeError(f"{len(polys)} polynomials placed, but the "
                           f"envelope holds slots {sorted(slots)}")

    def write_json(write) -> None:
        for before, k in zip(pieces[::2], slots):
            write(before)
            line = before[before.rfind("\n") + 1:]
            polys[k].to_json(write, line[:len(line) - len(line.lstrip(" "))])
        write(pieces[-1] + "\n")

    return write_json


@contextlib.contextmanager
def _out_file(path: str, newline: str | None = None):
    """Open `path` for writing; a failure inside the block closes and
    removes the partly written file before the error goes on (a symlink
    or a device, such as /dev/stdout, is left in place)."""
    fh = open(path, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def _emit(cfg: RunConfig, payload, text) -> None:
    """Write the JSON payload or the text report; `payload` and `text` are
    callables, so only the printed one is built.  An `--out` file that a
    failure leaves partly written is removed before the error goes on."""
    if cfg.fmt == "json":
        writer = _json_writer(payload())
    else:
        body = text()
        body = body if body.endswith("\n") else body + "\n"

        def writer(write) -> None:
            write(body)
    if not cfg.out:
        writer(sys.stdout.write)
        return
    with _out_file(cfg.out) as fh:
        writer(fh.write)


# ----------------------------------------------------------------------


def cmd_casimir(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    result = casimir(cfg.n)
    poly, matrix = result.polynomial, result.matrix

    def payload() -> dict:
        return {**_header(cfg),
                "degree": result.degree,
                "terms": len(poly.terms),
                "polynomial": poly,
                "matrix": [[matrix.at(i, j).text() for j in range(matrix.cols)]
                           for i in range(matrix.rows)]}

    _emit(cfg, payload, poly.text)
    return 0


def _wrap_independence(ctx: PhaseContext, seed: int) -> Report:
    res = check_independence(ctx, seed=seed)
    fails = [] if res.independent else \
        [f"Jacobian rank {res.rank} below expected {res.expected}"]
    return Report("independence",
                  {"n": ctx.n, "N": ctx.N, "rank": res.rank,
                   "expected": res.expected, "attempts": list(res.attempts),
                   "seed": seed}, fails)


def _verify_reports(cfg: RunConfig, ctx: PhaseContext,
                    max_ansatz_degree: int) -> list[Report]:
    n = cfg.n
    alg = ctx.algebra

    reports = [check_jacobi(n, alg)]
    if n >= 3:
        reports += [check_subalgebra_chain(n, alg), check_levi(n, alg)]
    reports.append(check_structure(n, seed=cfg.seed, algebra=alg))

    faithful = check_homomorphism(build_faithful_rep(n, alg), n, alg)
    if faithful.data["kernel_dim"] != 0:
        faithful.failures.append("faithful representation has a kernel")
    quotient = check_homomorphism(build_quotient_rep(n, alg), n, alg)
    if quotient.data["kernel_dim"] != triangular(n - 2):
        quotient.failures.append(
            "quotient kernel dimension is not the centre's")
    if not quotient.data["kernel_in_centre"]:
        quotient.failures.append("quotient kernel leaves the centre")
    reports += [faithful, quotient]

    return reports + [
        check_field_homomorphism(n, alg),
        verify_annihilation(n, alg),
        verify_intertwining(n, alg),
        check_grading(n, alg),
        check_uniqueness(n, max_degree=min(n - 1, max_ansatz_degree),
                         algebra=alg),
        check_realization_homomorphism(ctx),
        check_route_equivalence(ctx),
        check_vanishing(ctx),
        check_involution(ctx),
        _wrap_independence(ctx, cfg.seed),
    ]


def cmd_verify(args) -> int:
    cfg = _resolve_config(args, need_N=True)
    if cfg.n > cfg.ceiling_n:
        raise UsageError(
            f"n = {cfg.n} above the verification ceiling {cfg.ceiling_n}")
    if cfg.N < cfg.n:
        raise UsageError("N must be at least n so that integrals exist")
    ctx = _context(cfg)
    reports = _verify_reports(cfg, ctx, args.max_ansatz_degree)
    passed = all(r.passed for r in reports)

    def payload() -> dict:
        return {**_header(cfg, ctx),
                "checks": [r.to_dict() for r in reports],
                "passed": passed}

    def text() -> str:
        lines = [f"verify n={cfg.n} N={cfg.N} seed={cfg.seed}"]
        lines += [f"  {r}" for r in reports]
        lines.append("all checks passed" if passed else "FAILED")
        return "\n".join(lines)

    _emit(cfg, payload, text)
    return 0 if passed else 1


def cmd_integrals(args) -> int:
    cfg = _resolve_config(args, need_N=True)
    if cfg.N < cfg.n:
        raise UsageError("N must be at least n so that integrals exist")
    ctx = _context(cfg)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    sets = {side: integral_set(ctx, side) for side in sides}

    def payload() -> dict:
        return {**_header(cfg, ctx),
                "sides": {side: [{"m": m,
                                  "window": list(window(side, m, cfg.N)),
                                  "terms": len(p.terms),
                                  "polynomial": p}
                                 for m, p in members.items()]
                          for side, members in sets.items()}}

    def text() -> str:
        lines = []
        for side, members in sets.items():
            for m, p in members.items():
                a, b = window(side, m, cfg.N)
                lines.append(f"{side} m={m} sites=[{a},{b}]: {p.text()}")
        return "\n".join(lines)

    _emit(cfg, payload, text)
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args, need_N=True)
    if cfg.N < cfg.n:
        raise UsageError("N must be at least n so that integrals exist")
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError("step must be positive and finite")
    if not (math.isfinite(args.t_end) and args.t_end >= 0):
        raise UsageError("t-end must be nonnegative and finite")
    ctx = _context(cfg)
    try:
        gen_poly = parse_polynomial(args.H, ctx.registry)
        hamiltonian = ctx.realize_poly(gen_poly)
    except (ValueError, MissingVariable) as exc:
        raise UsageError(f"bad Hamiltonian: {exc}") from None
    system = HamiltonianSystem.build(ctx, hamiltonian)
    if args.x0:
        try:
            x0 = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise UsageError("x0 must be comma-separated floats") from None
        if len(x0) != 2 * cfg.N:
            raise UsageError(f"x0 needs {2 * cfg.N} components")
        if not all(map(math.isfinite, x0)):
            raise UsageError("x0 must be finite")
    else:
        import random as _random
        rng = _random.Random(cfg.seed)
        x0 = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(2 * cfg.N)]
    observables = integral_family(ctx)
    names = list(observables)
    # Check the budget, then open the CSV, both before integrating: a bad
    # path fails at once, and an over-budget run leaves --out untouched.
    check_trajectory_budget(cfg.N, args.step, args.t_end,
                            len({*names, "H"}))
    out = _out_file(cfg.out, newline="") if cfg.out \
        else contextlib.nullcontext()
    with out as fh:
        traj = integrate(system, x0, args.step, args.t_end,
                         scheme=args.scheme, observables=observables)
        if fh is not None:
            _write_trajectory(fh, cfg.N, names, traj)
    drifts = drift_report(traj)
    # a NaN compares false both ways, so test every drift, not their max
    passed = all(math.isfinite(d.max_relative_deviation)
                 and d.max_relative_deviation <= args.drift_threshold
                 for d in drifts.values())
    payload = {
        **_header(cfg, ctx),
        "H": args.H,
        "scheme": args.scheme,
        "step": args.step,
        "t_end": args.t_end,
        "x0": x0,
        "samples": int(traj.times.shape[0]),
        "drift": {name: {"initial": d.initial,
                         "max_abs_deviation": d.max_abs_deviation,
                         "max_relative_deviation": d.max_relative_deviation}
                  for name, d in sorted(drifts.items())},
        "threshold": args.drift_threshold,
        "passed": passed,
    }
    sys.stdout.write(json.dumps(_finite_or_null(payload), indent=2,
                                sort_keys=True, allow_nan=False) + "\n")
    return 0 if passed else 1


def _write_trajectory(fh, N: int, names: list[str], traj) -> None:
    """Write the trajectory as CSV: t, q1..qN, p1..pN, H and the named
    observables, one row per sample, each float as its `repr`."""
    import numpy as np

    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"q{k}" for k in range(1, N + 1)]
                    + [f"p{k}" for k in range(1, N + 1)] + ["H"] + names)
    table = np.column_stack([traj.times, traj.states, traj.observables["H"]]
                            + [traj.observables[nm] for nm in names])
    # csv writes a float as its repr, which never needs quoting, so joining
    # the reprs writes the same bytes in about two thirds of csv's time.
    # Only 1,024 rows at a time become Python floats, so the peak memory
    # does not grow with the trajectory.
    end = writer.dialect.lineterminator
    for start in range(0, len(table), 1024):
        fh.writelines([",".join(map(repr, row)) + end
                       for row in table[start:start + 1024].tolist()])


def _finite_or_null(value):
    """`value` with every NaN or infinite float replaced by None, so that
    the payload is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def cmd_dump_rep(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    alg = build_gn(cfg.n)
    rep = build_quotient_rep(cfg.n, alg) if args.quotient else \
        build_faithful_rep(cfg.n, alg)
    images = []
    for g in alg.basis.order:
        rows = rep.of(g).constant_entries()
        images.append({"generator": g.name,
                       "matrix": [[int(v) for v in row] for row in rows]})

    def payload() -> dict:
        return {**_header(cfg), "representation": rep.name,
                "size": rep.size, "images": images}

    def text() -> str:
        lines = []
        for img in images:
            lines.append(img["generator"])
            for row in img["matrix"]:
                lines.append("  " + " ".join(f"{v:3d}" for v in row))
        return "\n".join(lines)

    _emit(cfg, payload, text)
    return 0


def cmd_rank(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    from .algebra import beltrametti_blasi
    bb = beltrametti_blasi(cfg.n, seed=cfg.seed, trials=args.trials)
    _emit(cfg,
          lambda: {**_header(cfg), "dim": triangular(cfg.n), "rank": bb.rank,
                   "certified_rank": bb.certified_rank, "nu": bb.nu,
                   "trials": bb.trials},
          lambda: f"rank {bb.rank} (certified {bb.certified_rank}), "
                  f"nu {bb.nu}")
    return 0 if bb.consistent else 1


def cmd_ansatz(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    if args.degree < 1:
        raise UsageError("degree must be at least 1")
    try:
        sol = solve_ansatz(cfg.n, args.degree, budget=args.budget)
    except BudgetExceeded as exc:
        raise UsageError(str(exc)) from None

    def payload() -> dict:
        return {**_header(cfg), "degree": sol.degree,
                "monomials": sol.monomials, "dimension": sol.dimension,
                "basis": sol.basis}

    def text() -> str:
        lines = [f"degree {sol.degree}: {sol.dimension} solution(s) over "
                 f"{sol.monomials} monomials"]
        lines += [f"  {p.text()}" for p in sol.basis]
        return "\n".join(lines)

    _emit(cfg, payload, text)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--ceiling-n", type=int, default=7, dest="ceiling_n")
    common.add_argument("--out", default=None,
                        help="write the report (or the trajectory CSV for "
                             "simulate) to this path")
    common.add_argument("--config", default=None,
                        help="key=value file; supports alpha.<i> = [..], "
                             "seed, alpha_seed")

    parser = argparse.ArgumentParser(
        prog="gnlab",
        description="Exact Lie-chain invariants and integrable systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("casimir", parents=[common],
                       help="print the level-n invariant")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_casimir)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full verification suite")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--alpha-seed", type=int, default=1, dest="alpha_seed")
    p.add_argument("--max-ansatz-degree", type=int, default=4,
                   dest="max_ansatz_degree")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("integrals", parents=[common],
                       help="emit the conserved quantities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha-seed", type=int, default=1, dest="alpha_seed")
    p.add_argument("--side", choices=("left", "right", "both"),
                   default="both")
    p.set_defaults(fn=cmd_integrals)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate a realised Hamiltonian and report "
                            "conservation drift")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--alpha-seed", type=int, default=1, dest="alpha_seed")
    p.add_argument("--H", default="xp - xm",
                   help="polynomial in the generator symbols")
    p.add_argument("--x0", default=None,
                   help="comma-separated floats q1..qN,p1..pN")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
    p.add_argument("--scheme", choices=("rk4", "leapfrog"), default="rk4")
    p.add_argument("--drift-threshold", type=float, default=1e-6,
                   dest="drift_threshold")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("dump-rep", parents=[common],
                       help="dump the matrix representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quotient", action="store_true",
                   help="dump the size-n quotient instead of the faithful "
                            "representation")
    p.set_defaults(fn=cmd_dump_rep)

    p = sub.add_parser("rank", parents=[common],
                       help="commutator-matrix rank and invariant count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("ansatz", parents=[common],
                       help="solve for all invariants of one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(fn=cmd_ansatz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, MissingVariable, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
