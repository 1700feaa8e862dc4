"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 bench/selftest.py

Runs the same workload shapes at small sizes (verify n=3 N=4, casimir n=5,
simulate n=2 N=3 to t=0.5) through the code bench/run.py uses, traced and
untraced, and checks that:

* every metric BENCHMARK.json names is reported with its unit, and no run
  fails on correct output;
* a corrupted output (a flipped coefficient, ``passed: false``, a bare NaN,
  a truncated trajectory) is caught and counted in ``failed``;
* per-layer counts repeat exactly across two traced runs;
* a traced name the program lacks is reported absent instead of failing.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SMOKE  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        result = fn(*args, **kwargs)
    return result, buf.getvalue()


def first_only(edit):
    """Apply `edit` to the JSON on stdout of the first gnlab run only."""
    state = {"done": False}

    def tamper(stdout: Path, work: Path) -> None:
        if state["done"] or stdout.name != "gnlab.out":
            return
        state["done"] = True
        payload = json.loads(stdout.read_text(encoding="utf-8"))
        edit(payload, work)
        stdout.write_text(json.dumps(payload, indent=2, sort_keys=True),
                          encoding="utf-8")
    return tamper


def flip_coefficient(payload, work):
    term = payload["polynomial"]["terms"][0]
    term["coeff"] = str(-int(term["coeff"]))


def fail_verdict(payload, work):
    payload["passed"] = False


def nan_drift(payload, work):
    payload["drift"]["H"]["max_relative_deviation"] = float("nan")


def truncate_csv(payload, work):
    path = work / "traj.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[mode]}
             for mode in ("end_to_end", "per_layer")}
    for w in SMOKE.values():
        for trace_on, mode in ((False, "end_to_end"), (True, "per_layer")):
            res, text = quiet(run.run_workload, w, 1, 1.0, trace_on, spec)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units[mode], f"{w.name} {mode}: every metric with "
                                       "its unit")
            expect(res["correct"] and res["failed"] == 0
                   and "error_rate 0.0000" in text,
                   f"{w.name} {mode}: no failed run on correct output")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   f"{w.name} {mode}: every value is a number")
            if trace_on:
                again, _ = quiet(run.run_workload, w, 1, 1.0, True, spec)
                counts = {k for k, u in units[mode].items() if u == "count"}
                expect(all(res["metrics"][k] == again["metrics"][k]
                           for k in counts),
                       f"{w.name}: counts repeat across two traced runs")

    corruptions = [
        ("casimir-n5", "flipped coefficient", flip_coefficient),
        ("verify-n3", "passed: false", fail_verdict),
        ("simulate-n2", "passed: false", fail_verdict),
        ("simulate-n2", "bare NaN drift", nan_drift),
        ("simulate-n2", "truncated CSV", truncate_csv),
    ]
    for name, what, edit in corruptions:
        for trace_on in (False, True):
            res, text = quiet(run.run_workload, SMOKE[name], 1, 1.0, trace_on,
                              spec, tamper=first_only(edit))
            expect(not res["correct"] and res["failed"] == 1
                   and "FAILED" in text,
                   f"{name} trace={int(trace_on)}: {what} is counted as "
                   f"1 failed run of {res['attempted']}")

    sys.path.insert(0, str(run.ROOT / "src"))
    rec = tracer.Recorder()
    saved = tracer.SPANS
    tracer.SPANS = saved + (("poly", "no_such_name", "poly.no_such_name",
                             None),)
    try:
        absent = tracer.install(rec)
    finally:
        tracer.SPANS = saved
    expect("poly.no_such_name" in absent,
           "a missing traced name is reported absent")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
