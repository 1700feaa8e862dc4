"""Traced in-process replay of one gnlab command line.

    python3 bench/tracer.py SPANS_FILE -- ARGV...

Imports ``gnlab.cli``, wraps the public functions listed in ``SPANS`` at
every gnlab module that binds them, runs ``gnlab.cli.main(ARGV)`` and, once
the run has ended, writes the recorded spans to SPANS_FILE as JSON.  The
process exits with the code ``main`` returned, and writes to stdout exactly
what the untraced ``gnlab`` process would.

Polynomial operators (``+``, ``*``, ``partial``) run millions of times per
workload and are not wrapped: their cost shows up as the self time of the
layer that calls them.  A listed name that the program no longer has is
reported as absent, not treated as an error.

This module also turns a spans file into the per-layer metrics
(``layer_metrics``); that part imports nothing from gnlab.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _out_terms(args, kwargs, result):
    return {"out_terms": len(result.terms)}


def _nullspace_shape(args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    out = {"cols": _arg(args, kwargs, 1, "ncols"), "nullity": len(result)}
    if hasattr(rows, "__len__"):
        out["rows"] = len(rows)
    return out


def _casimir_key(args, kwargs, result):
    return {"key": str(_arg(args, kwargs, 0, "n"))}


def _window_key(args, kwargs, result):
    ctx = _arg(args, kwargs, 0, "ctx")
    return {"key": f"{id(ctx)}:{_arg(args, kwargs, 1, 'side')}:"
                   f"{_arg(args, kwargs, 2, 'm')}"}


def _ansatz_size(args, kwargs, result):
    return {"monomials": result.monomials}


def _first_try(args, kwargs, result):
    return {"first_try": int(len(result.attempts) == 1 and result.independent)}


def _trajectory(args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    observables = dict(_arg(args, kwargs, 5, "observables") or {})
    observables.setdefault("H", system.hamiltonian)
    samples = int(result.times.shape[0])
    return {"samples": samples, "steps": samples - 1,
            "observable_terms": sum(len(p.terms)
                                    for p in observables.values())}


# (module, attribute path in that module, span name, counter or None).
# Names without a metric of their own still take their time out of the
# caller's self time, so each layer's self time stays its own.
SPANS = (
    ("poly", "det", "poly.det", _out_terms),
    ("poly", "Polynomial.substitute", "poly.substitute", _out_terms),
    ("poly", "sparse_nullspace", "poly.sparse_nullspace", _nullspace_shape),
    ("poly", "nullspace", "poly.nullspace", None),
    ("poly", "rref", "poly.rref", None),
    ("poly", "rank", "poly.rank", None),
    ("poly", "rank_rational", "poly.rank_rational", None),
    ("poly", "parse_polynomial", "poly.parse_polynomial", None),
    ("poly", "Polynomial.to_json", "poly.to_json", None),
    ("poly", "Polynomial.text", "poly.text", None),
    ("algebra", "build_gn", "algebra.build_gn", None),
    ("algebra", "GnAlgebra.bracket", "algebra.bracket", None),
    ("algebra", "check_jacobi", "algebra.check_jacobi", None),
    ("algebra", "check_subalgebra_chain", "algebra.check_subalgebra_chain",
     None),
    ("algebra", "check_levi", "algebra.check_levi", None),
    ("algebra", "check_structure", "algebra.check_structure", None),
    ("algebra", "compute_centre", "algebra.compute_centre", None),
    ("algebra", "beltrametti_blasi", "algebra.beltrametti_blasi", None),
    ("representations", "build_faithful_rep",
     "representations.build_faithful_rep", None),
    ("representations", "build_quotient_rep",
     "representations.build_quotient_rep", None),
    ("representations", "build_coadjoint", "representations.build_coadjoint",
     None),
    ("representations", "CoadjointField.apply",
     "representations.CoadjointField.apply", None),
    ("representations", "apply_field", "representations.apply_field", None),
    ("representations", "check_homomorphism",
     "representations.check_homomorphism", None),
    ("representations", "check_field_homomorphism",
     "representations.check_field_homomorphism", None),
    ("casimir", "casimir_matrix", "casimir.casimir_matrix", None),
    ("casimir", "casimir", "casimir.casimir", _casimir_key),
    ("casimir", "verify_annihilation", "casimir.verify_annihilation", None),
    ("casimir", "verify_intertwining", "casimir.verify_intertwining", None),
    ("casimir", "check_grading", "casimir.check_grading", None),
    ("casimir", "solve_ansatz", "casimir.solve_ansatz", _ansatz_size),
    ("casimir", "check_uniqueness", "casimir.check_uniqueness", None),
    ("coalgebra", "PhaseContext.__init__", "coalgebra.PhaseContext", None),
    ("coalgebra", "PhaseContext.realize_poly", "coalgebra.realize_poly", None),
    ("coalgebra", "canonical_bracket", "coalgebra.canonical_bracket", None),
    ("coalgebra", "integrals_via_coproduct",
     "coalgebra.integrals_via_coproduct", _window_key),
    ("coalgebra", "integrals_via_sum_of_squares",
     "coalgebra.integrals_via_sum_of_squares", _window_key),
    ("coalgebra", "building_block", "coalgebra.building_block", None),
    ("coalgebra", "integral_set", "coalgebra.integral_set", None),
    ("coalgebra", "check_realization_homomorphism",
     "coalgebra.check_realization_homomorphism", None),
    ("coalgebra", "check_route_equivalence",
     "coalgebra.check_route_equivalence", None),
    ("coalgebra", "check_vanishing", "coalgebra.check_vanishing", None),
    ("coalgebra", "check_involution", "coalgebra.check_involution", None),
    ("coalgebra", "check_independence", "coalgebra.check_independence",
     _first_try),
    ("dynamics", "HamiltonianSystem.build", "dynamics.HamiltonianSystem.build",
     None),
    ("dynamics", "compile_evaluator", "dynamics.compile_evaluator", None),
    ("dynamics", "integrate", "dynamics.integrate", _trajectory),
    ("dynamics", "drift_report", "dynamics.drift_report", None),
    ("cli", "main", "cli.main", None),
)

# A check span is an outermost span of one of these functions; its wall
# time minus its thread CPU time is the time it waited for the interpreter
# lock under the verify worker pool.
CHECK_PREFIXES = ("check_", "verify_")

# Span of the replayed integration without observables (see main()).
STEP_SPAN = "dynamics.step"


class Recorder:
    """Spans kept in memory as tuples (id, name, parent, t0, t1, cpu0, cpu1,
    thread, counts), appended when the call returns.  Tuples of plain
    values leave the cyclic garbage collector's tracked set, so a few
    hundred thousand spans do not slow the program's own collections.  A
    span opened on a thread with no open span (a worker of the verify
    pool) takes the running ``cli.main`` span as its parent."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self.root: int | None = None
        self.replay = None
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, counter):
        rec = self
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._local.__dict__.setdefault("stack", [])
            sid = next(rec._ids)
            parent = stack[-1] if stack else rec.root
            stack.append(sid)
            if is_root:
                rec.root = sid
            ok = False
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                if is_root:
                    rec.root = None
                counts = None
                if ok and counter is not None:
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        pass  # a changed return type leaves the counts absent
                rec.spans.append((sid, name, parent, t0, t1, c0, c1,
                                  threading.get_ident(), counts))
            if name == "dynamics.integrate" and rec.replay is None:
                rec.replay = (fn, args, kwargs)
            return result

        return traced


def _wrap_everywhere(old, new) -> None:
    """Rebind every gnlab module attribute that is `old` to `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "gnlab" or modname.startswith("gnlab."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> list[str]:
    """Wrap every listed name that exists; return the absent span names."""
    absent = []
    for module, path, name, counter in SPANS:
        try:
            mod = importlib.import_module(f"gnlab.{module}")
        except ImportError:
            absent.append(name)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            absent.append(name)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(rec.wrap(raw.__func__, name, counter)))
        elif owner_name:
            setattr(owner, attr, rec.wrap(raw, name, counter))
        else:
            _wrap_everywhere(raw, rec.wrap(raw, name, counter))
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- ARGV...", file=sys.stderr)
        return 2
    spans_path, gnlab_argv = argv[0], argv[2:]
    import gnlab.cli  # binds every module before wrapping

    rec = Recorder()
    absent = install(rec)
    code = gnlab.cli.main(gnlab_argv)
    sys.stdout.flush()
    if rec.replay is not None:
        # Integrate again with no observables besides H: the stepping half
        # of dynamics.integrate; the rest of the traced call is sampling.
        fn, args, kwargs = rec.replay
        rec.enabled = False
        c0, t0 = time.thread_time(), time.perf_counter()
        try:
            fn(*args[:5], **dict(kwargs, observables=None))
        except TypeError:
            absent.append(STEP_SPAN)  # integrate no longer takes these
        else:
            rec.spans.append((next(rec._ids), STEP_SPAN, None, t0,
                              time.perf_counter(), c0, time.thread_time(),
                              threading.get_ident(), None))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"absent": absent, "spans": rec.spans}, fh,
                  separators=(",", ":"))
    return code


# ----------------------------------------------------------------------
# Per-layer metrics from a spans file


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _is_check(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith(CHECK_PREFIXES)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer totals keyed by metric name (without units).

    ``<span>.s`` sums the durations of the outermost spans of that name,
    so re-entry is not counted twice; worker threads add up, so a total
    can exceed the wall time.  ``<module>.self.s`` sums each span's
    duration minus the union of its child spans.
    """
    spans = {s[0]: s for s in trace["spans"]}
    children: dict[int, list] = {}
    for s in spans.values():
        if s[2] is not None:
            children.setdefault(s[2], []).append(s)

    def ancestors(s):
        p = s[2]
        while p is not None:
            yield spans[p][1]
            p = spans[p][2]

    out: dict[str, float] = {}
    keys: dict[str, set] = {}

    def add(metric, value):
        out[metric] = out.get(metric, 0) + value

    for s in spans.values():
        name, dur = s[1], s[4] - s[3]
        add(f"{name}.calls", 1)
        if name == STEP_SPAN:  # a replay outside cli.main, not a layer
            add(f"{name}.s", dur)
            continue
        if name not in ancestors(s):
            add(f"{name}.s", dur)
        kids = children.get(s[0], ())
        add(f"{name.split('.')[0]}.self.s",
            dur - _union_length((k[3], k[4]) for k in kids))
        if _is_check(name) and not any(map(_is_check, ancestors(s))):
            add("cli.gil_wait_s", dur - (s[6] - s[5]))
        for key, value in (s[8] or {}).items():
            if key == "key":
                keys.setdefault(name, set()).add(value)
            elif value is not None:
                add(f"{name}.{key}", value)
    for name, distinct in keys.items():
        out[f"{name}.distinct_ratio"] = len(distinct) / out[f"{name}.calls"]
    rows = out.get("poly.sparse_nullspace.rows")
    if rows:
        useful = (out["poly.sparse_nullspace.cols"]
                  - out["poly.sparse_nullspace.nullity"])
        out["casimir.ansatz.useful_row_ratio"] = useful / rows
    calls = out.get("coalgebra.check_independence.calls")
    if calls:
        out["coalgebra.check_independence.first_try_ratio"] = out.get(
            "coalgebra.check_independence.first_try", 0) / calls
    if STEP_SPAN + ".s" in out:
        out["dynamics.sample.s"] = (out["dynamics.integrate.s"]
                                    - out[STEP_SPAN + ".s"])
    for key in ("samples", "steps", "observable_terms"):
        if f"dynamics.integrate.{key}" in out:
            out[f"dynamics.{key}"] = out[f"dynamics.integrate.{key}"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
