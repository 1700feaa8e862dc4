"""Command-line interface.

Subcommands: casimir, verify, integrals, simulate, dump-rep, rank, ansatz.
Exit codes: 0 success, 1 verification or conservation failure or stdout
closed by its reader, 2 usage or configuration error, an exceeded size
budget, an unwritable output file, or an arithmetic or memory error.  JSON
output carries a schema version and is byte-identical across runs with the
same configuration and seeds; GN_LAB_SEED overrides --seed when set.
A report, JSON or text, is streamed in pieces through one buffer that
passes it on to stdout or `--out` in blocks of about 64 KiB, so even C_9's
152,531 terms leave in a few hundred writes.
`verify` builds what its checks share (the phase context and C_n) once,
then runs its checks in order in this one process; the first check that
raises ends the run with that error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .algebra import (beltrametti_blasi, build_gn, check_jacobi, check_levi,
                      check_subalgebra_chain, check_structure, triangular)
from .casimir import (ANSATZ_BUDGET, ansatz_monomials, casimir,
                      check_casimir_level, check_grading, check_uniqueness,
                      solve_ansatz, verify_annihilation, verify_intertwining)
from .coalgebra import (PhaseContext, check_independence,
                        check_integral_budget, check_involution,
                        check_jacobian_budget,
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

SCHEMA_VERSION = 2

# Highest level `rank` and `dump-rep` take.  Their matrices have about n^4
# entries: at level 40, `rank` takes about 0.1 s and `dump-rep --format
# json` about 2.4 s with a peak RSS of about 62 MB on a 2-core x86-64 host.
MAX_MATRIX_N = 40


class UsageError(ValueError):
    pass


class RunConfig(NamedTuple):
    command: str
    n: int
    N: int | None
    seed: int
    alpha_seed: int
    alpha_rows: dict[int, list[Fraction]] | None
    fmt: str | None
    out: str | None


_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _parse_config_file(path: str) -> dict:
    """Key/value config text: `alpha.<i> = [a, b, ...]` with i >= 1,
    `seed = <int>`, `alpha_seed = <int>` (or `alpha-seed`); values are
    rationals written as integers or p/q, like 3 or -1/2, and no key may be
    given twice."""
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
            if i < 1:
                raise UsageError(
                    f"config line {lineno}: row index {i} is not positive")
            if i in opts["alpha"]:
                raise UsageError(f"config line {lineno}: alpha.{i} given twice")
            if not (value.startswith("[") and value.endswith("]")):
                raise UsageError(f"config line {lineno}: expected [a, b, ...]")
            items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
            # other forms Fraction parses are refused: an exponent as in
            # 1e300000000 would expand to a 300-million-digit integer
            if not all(map(_RATIONAL.fullmatch, items)):
                raise UsageError(f"config line {lineno}: bad rational")
            try:
                opts["alpha"][i] = [Fraction(v) for v in items]
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"config line {lineno}: bad rational") from None
        elif key in ("seed", "alpha_seed", "alpha-seed"):
            key = key.replace("-", "_")
            if key in opts:
                raise UsageError(f"config line {lineno}: {key} given twice")
            try:
                opts[key] = int(value)
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
        if N < n:
            raise UsageError("N must be at least n so that integrals exist")
    alpha_rows = file_opts["alpha"] or None
    if alpha_rows is not None:
        missing = [i for i in range(1, n - 1) if i not in alpha_rows]
        if missing:
            raise UsageError(f"config lacks alpha rows {missing}")
    return RunConfig(command=args.command, n=n, N=N, seed=seed,
                     alpha_seed=alpha_seed, alpha_rows=alpha_rows,
                     fmt=getattr(args, "format", None), out=args.out)


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


# What stands in the envelope for a polynomial, and as the encoder writes it
_SLOT = "\0polynomial\0"
_SLOT_JSON = json.dumps(_SLOT)
# Envelope chunks joined into one write
_BLOCK = 4096


def _write_json(payload, write) -> None:
    """Write `payload` into the callable `write` as the text of
    ``json.dumps(indent=2, sort_keys=True)``, streamed.

    With `indent` set, `json.dumps` joins the chunks of the pure-Python
    encoder; here they are written in blocks of `_BLOCK`.  The encoder
    turns each Polynomial into a placeholder, a chunk of its own, and in
    its place the polynomial's own `to_json` text is streamed, indented
    like that line."""
    polys: list[Polynomial] = []

    def slot(value):
        if not isinstance(value, Polynomial):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        polys.append(value)
        return _SLOT

    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False,
                               default=slot)
    block: list[str] = []
    line = ""  # the written part of the current line
    for chunk in encoder.iterencode(payload):
        if chunk == _SLOT_JSON or len(block) == _BLOCK:
            text = "".join(block)
            block.clear()
            write(text)
            cut = text.rfind("\n")
            line = line + text if cut < 0 else text[cut + 1:]
        if chunk != _SLOT_JSON:
            block.append(chunk)
        elif polys:
            pad = line[:len(line) - len(line.lstrip(" "))]
            polys.pop().to_json(write, pad)
        else:
            raise RuntimeError("the payload holds the placeholder text")
    write("".join(block) + "\n")


# Characters a report gathers before it passes them on to its file
_FLUSH_AT = 1 << 16


class _Blocks:
    """Text gathered for the file `fh` and passed on in blocks of at least
    `_FLUSH_AT` characters, so that a report of many small pieces takes a
    few writes rather than one per piece.

    Where `fh` writes straight through to a raw binary stream (stdout
    under PYTHONUNBUFFERED), `fh.write` drops what a short write leaves
    over, so a block is encoded and written to the raw stream until all
    of it is out; a reader that has closed the pipe then makes the next
    write raise BrokenPipeError."""

    __slots__ = ("fh", "pending", "size")

    def __init__(self, fh):
        self.fh = fh
        self.pending: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.pending.append(text)
        self.size += len(text)
        if self.size >= _FLUSH_AT:
            self.flush()

    def flush(self) -> None:
        text = "".join(self.pending)
        self.pending.clear()
        self.size = 0
        raw = getattr(self.fh, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            self.fh.write(text)
            return
        self.fh.flush()
        data = memoryview(text.encode(self.fh.encoding, self.fh.errors))
        while data:
            data = data[raw.write(data):]


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


@contextlib.contextmanager
def _report(cfg: RunConfig):
    """Open `--out` (or take stdout) and yield ``emit(payload, text)``,
    which writes the JSON payload or the text report there; `payload` and
    `text` are callables, so only the printed one is built, and `text`
    returns an iterable of pieces of the text, newlines included.

    Both forms are written through one `_Blocks`, flushed before `emit`
    returns, so a reader that closes early is met inside the command; a
    failure drops the text not yet passed on.  A command enters this after
    validating its arguments and before computing, so a bad path fails at
    once and a refusal leaves an existing `--out` untouched.  An `--out`
    file that a failure leaves empty or partly written is removed before
    the error goes on."""
    out = _out_file(cfg.out) if cfg.out else \
        contextlib.nullcontext(sys.stdout)
    with out as fh:
        blocks = _Blocks(fh)

        def emit(payload, text) -> None:
            if cfg.fmt == "json":
                _write_json(payload(), blocks.write)
            else:
                for piece in text():
                    blocks.write(piece)
            blocks.flush()

        yield emit


# ----------------------------------------------------------------------


def cmd_casimir(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    check_casimir_level(cfg.n)
    with _report(cfg) as emit:
        result = casimir(build_gn(cfg.n))
        poly, matrix = result.polynomial, result.matrix

        def payload() -> dict:
            return {**_header(cfg),
                    "degree": result.degree,
                    "terms": len(poly.terms),
                    "polynomial": poly,
                    "matrix": [[e.text() for e in row] for row in matrix]}

        def text():
            yield from poly.text_pieces()
            yield "\n"

        emit(payload, text)
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
                    sweep: int) -> list[Report]:
    alg = ctx.algebra
    cas = ctx.casimir
    reports = [check_jacobi(alg)]
    if alg.n >= 3:
        reports += [check_subalgebra_chain(alg), check_levi(alg)]
    return reports + [
        check_structure(alg),
        check_homomorphism(build_faithful_rep(alg)),
        check_homomorphism(build_quotient_rep(alg)),
        check_field_homomorphism(alg),
        verify_annihilation(cas),
        verify_intertwining(cas),
        check_grading(cas),
        check_uniqueness(cas, sweep),
        check_realization_homomorphism(ctx),
        check_route_equivalence(ctx),
        check_vanishing(ctx),
        check_involution(ctx),
        _wrap_independence(ctx, cfg.seed),
    ]


def cmd_verify(args) -> int:
    cfg = _resolve_config(args, need_N=True)
    if cfg.n > args.ceiling_n:
        raise UsageError(
            f"n = {cfg.n} above the verification ceiling {args.ceiling_n}")
    if args.max_ansatz_degree < 1:
        raise UsageError("max-ansatz-degree must be at least 1")
    # the uniqueness sweep's top degree, whose ansatz must fit the budget
    sweep = min(cfg.n - 1, args.max_ansatz_degree)
    ansatz_monomials(cfg.n, sweep)
    check_casimir_level(cfg.n)
    check_jacobian_budget(cfg.n, cfg.N)
    ctx = _context(cfg)
    with _report(cfg) as emit:
        reports = _verify_reports(cfg, ctx, sweep)
        passed = all(r.passed for r in reports)

        def payload() -> dict:
            return {**_header(cfg, ctx),
                    "checks": [r.to_dict() for r in reports],
                    "passed": passed}

        def text():
            yield f"verify n={cfg.n} N={cfg.N} seed={cfg.seed}\n"
            yield from (f"  {r}\n" for r in reports)
            yield "all checks passed\n" if passed else "FAILED\n"

        emit(payload, text)
    return 0 if passed else 1


def cmd_integrals(args) -> int:
    cfg = _resolve_config(args, need_N=True)
    check_integral_budget(cfg.n, cfg.N)
    ctx = _context(cfg)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    with _report(cfg) as emit:
        sets = {side: integral_set(ctx, side) for side in sides}

        def payload() -> dict:
            return {**_header(cfg, ctx),
                    "sides": {side: [{"m": m,
                                      "window": list(window(side, m, cfg.N)),
                                      "terms": len(p.terms),
                                      "polynomial": p}
                                     for m, p in members.items()]
                              for side, members in sets.items()}}

        def text():
            for side, members in sets.items():
                for m, p in members.items():
                    a, b = window(side, m, cfg.N)
                    yield f"{side} m={m} sites=[{a},{b}]: {p.text()}\n"

        emit(payload, text)
    return 0


def cmd_simulate(args) -> int:
    # gnlab makes no BLAS call, but importing numpy starts an OpenBLAS
    # thread pool; one thread saves its start-up.  A value already set, or
    # a numpy already loaded, is left alone.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cfg = _resolve_config(args, need_N=True)
    check_integral_budget(cfg.n, cfg.N)
    if not (math.isfinite(args.step) and args.step > 0):
        raise UsageError("step must be positive and finite")
    if not (math.isfinite(args.t_end) and args.t_end >= 0):
        raise UsageError("t-end must be nonnegative and finite")
    if not (math.isfinite(args.drift_threshold) and args.drift_threshold >= 0):
        raise UsageError("drift-threshold must be nonnegative and finite")
    ctx = _context(cfg)
    try:
        gen_poly = parse_polynomial(args.H, ctx.algebra.registry)
        system = HamiltonianSystem.build(ctx, ctx.realize_poly(gen_poly))
    except (ValueError, MissingVariable) as exc:
        raise UsageError(f"bad Hamiltonian: {exc}") from None
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


def _check_matrix_level(cfg: RunConfig) -> None:
    """Raise BudgetExceeded for a level above `MAX_MATRIX_N`."""
    if cfg.n > MAX_MATRIX_N:
        raise BudgetExceeded(
            f"n = {cfg.n} is too large for {cfg.command}: levels above "
            f"{MAX_MATRIX_N} are refused, since its matrices have about "
            f"n^4 entries")


def cmd_dump_rep(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    _check_matrix_level(cfg)
    with _report(cfg) as emit:
        alg = build_gn(cfg.n)
        rep = build_quotient_rep(alg) if args.quotient else \
            build_faithful_rep(alg)
        images = [{"generator": g.name, "matrix": rep.of(g)}
                  for g in alg.basis.order]

        def payload() -> dict:
            return {**_header(cfg), "representation": rep.name,
                    "size": rep.size, "images": images}

        def text():
            for img in images:
                yield img["generator"] + "\n"
                for row in img["matrix"]:
                    yield "  " + " ".join(f"{v:3d}" for v in row) + "\n"

        emit(payload, text)
    return 0


def cmd_rank(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    _check_matrix_level(cfg)
    with _report(cfg) as emit:
        bb = beltrametti_blasi(build_gn(cfg.n))
        emit(lambda: {**_header(cfg), "dim": triangular(cfg.n),
                      "rank": bb.rank,
                      "rank_upper_bound": bb.rank_upper_bound, "nu": bb.nu},
             lambda: [f"rank {bb.rank} (upper bound {bb.rank_upper_bound}), "
                      f"nu {bb.nu}\n"])
    return 0 if bb.rank == bb.rank_upper_bound else 1


def cmd_ansatz(args) -> int:
    cfg = _resolve_config(args, need_N=False)
    if args.budget < 1:
        raise UsageError("budget must be at least 1")
    ansatz_monomials(cfg.n, args.degree, args.budget)
    with _report(cfg) as emit:
        sol = solve_ansatz(build_gn(cfg.n), args.degree, args.budget)

        def payload() -> dict:
            return {**_header(cfg), "degree": sol.degree,
                    "monomials": sol.monomials, "dimension": sol.dimension,
                    "basis": sol.basis}

        def text():
            yield (f"degree {sol.degree}: {sol.dimension} solution(s) "
                   f"over {sol.monomials} monomials\n")
            yield from (f"  {p.text()}\n" for p in sol.basis)

        emit(payload, text)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None,
                        help="write the report (or the trajectory CSV for "
                             "simulate) to this path")
    common.add_argument("--config", default=None,
                        help="key=value file; supports alpha.<i> = [..], "
                             "seed, alpha_seed")
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="gnlab",
        description="Exact Lie-chain invariants and integrable systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("casimir", parents=[report],
                       help="print the level-n invariant")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_casimir)

    p = sub.add_parser("verify", parents=[report],
                       help="run the full verification suite")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--alpha-seed", type=int, default=1, dest="alpha_seed")
    p.add_argument("--ceiling-n", type=int, default=7, dest="ceiling_n")
    p.add_argument("--max-ansatz-degree", type=int, default=4,
                   dest="max_ansatz_degree")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("integrals", parents=[report],
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

    p = sub.add_parser("dump-rep", parents=[report],
                       help="dump the matrix representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quotient", action="store_true",
                   help="dump the size-n quotient instead of the faithful "
                            "representation")
    p.set_defaults(fn=cmd_dump_rep)

    p = sub.add_parser("rank", parents=[report],
                       help="commutator-matrix rank and invariant count")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("ansatz", parents=[report],
                       help="solve for all invariants of one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--budget", type=int, default=ANSATZ_BUDGET)
    p.set_defaults(fn=cmd_ansatz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout's reader left early: let the flush at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, MissingVariable, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
