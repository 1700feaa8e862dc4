"""gnlab benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload verify-n6 --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is ``src/gnlab``.  The
workloads, their seeded inputs and output checks are in bench/workloads.py,
the metric names and units in BENCHMARK.json, and the reasoning behind both
in bench/DESIGN.md.

Load shape: a closed loop with one client.  One ``gnlab`` process runs at a
time, each a fresh interpreter, and the next starts when it has exited.

--trace 0 runs ``SETUP_PROBES`` set-up probes (bench/probe.py) and starts
fresh gnlab processes until their wall times add up to ``--seconds`` (so at
least one), and reports the medians of wall time, set-up time and peak RSS.
--trace 1 runs the command once untraced and once under bench/tracer.py and
reports the per-layer metrics and the tracing overhead.

Every output is checked; a run that exits nonzero, times out or fails its
check is counted in ``failed`` and contributes no timing.  The summary lines
go to stdout, and the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import STEP_SPAN, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
DEADLINE_S = 170.0  # every child is killed by then; the contract allows 180
GNLAB = ["-c", "import sys; from gnlab.cli import main; sys.exit(main())"]

# Per-layer metrics computed from other spans than their own name suggests.
DERIVED_FROM = {
    "casimir.ansatz.useful_row_ratio": "poly.sparse_nullspace",
    STEP_SPAN + ".s": "dynamics.integrate",
    "dynamics.sample.s": "dynamics.integrate",
    "dynamics.steps": "dynamics.integrate",
    "dynamics.samples": "dynamics.integrate",
    "dynamics.observable_terms": "dynamics.integrate",
}


@dataclass
class Run:
    """One child process, timed from spawn to exit."""
    label: str
    code: int | None  # None when killed at the deadline
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code is not None and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(label: str, cmd: list[str], stdout: Path, deadline: float) -> Run:
    """Run `cmd` with stdout to a file; rusage comes from wait4 on this
    child only, so peak RSS is the child's own."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"),
                                         "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0 and time.monotonic() >= deadline
    run = Run(label, None if timed_out else proc.returncode, wall,
              usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if timed_out:
        run.problems.append("killed at the run deadline")
    return run


def check(run: Run, workload: Workload, stdout: Path, work: Path,
          tamper=None) -> Run:
    if run.code is not None:
        if tamper is not None:
            tamper(stdout, work)
        try:
            run.problems += workload.check(run.code, stdout.read_bytes(), work)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            run.problems.append(f"output of unexpected shape: {exc!r}")
    if run.problems:
        err = stdout.with_suffix(".err").read_text(errors="replace")
        tail = err.strip().splitlines()[-3:]
        print(f"  {run.label} FAILED: {'; '.join(run.problems)}"
              + (f" | stderr: {' / '.join(tail)}" if tail else ""))
    return run


def percentile_line(values: list[float], unit: str) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail n/a (needs 11 samples, has {n})"
    pct = 100 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]:.4f} {unit}"


def measure(workload: Workload, argv: list[str], work: Path, seconds: float,
            deadline: float, tamper=None) -> tuple[list[Run], dict]:
    probe_cmd = [sys.executable, str(BENCH / "probe.py"), *workload.probe()]

    def probe(count: int) -> list[Run]:
        return [check_probe(spawn("probe", probe_cmd, work / "probe.out",
                                  deadline)) for _ in range(count)]

    # Half the probes run before the samples and half after, so that one
    # slow spell of a shared machine does not set the median alone.
    probes = probe(SETUP_PROBES // 2 + 1)
    samples: list[Run] = []
    measured = 0.0
    while True:
        stdout = work / "gnlab.out"
        run = spawn(f"run {len(samples)}", [sys.executable, *GNLAB, *argv],
                    stdout, deadline)
        samples.append(check(run, workload, stdout, work, tamper))
        measured += run.wall
        if (run.code is None or measured >= seconds
                or time.monotonic() + run.wall > deadline):
            break
    probes += probe(SETUP_PROBES // 2)
    good = [r for r in samples if r.ok]
    setup = [r.wall for r in probes if r.ok]
    values = {}
    if good and setup:
        walls = [r.wall for r in good]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r.rss_mb for r in good)}
        print(f"  wall_s {values['wall_s']:.4f} s: median of {len(good)} "
              f"run(s) ({', '.join(f'{w:.3f}' for w in walls)}); "
              f"{percentile_line(walls, 's')}")
        print(f"  setup_s {values['setup_s']:.4f} s: median of {len(setup)} "
              f"probe(s) ({', '.join(f'{w:.3f}' for w in setup)})")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB: median of "
              f"{len(good)} run(s), ru_maxrss from wait4 on the child")
        print(f"  cpu_s {statistics.median(r.cpu for r in good):.4f} s: "
              f"median of {len(good)} run(s)")
    return probes + samples, values


def check_probe(run: Run) -> Run:
    if run.code != 0:
        run.problems.append(f"probe exit code {run.code}")
        print(f"  {run.label} FAILED: {run.problems[-1]}")
    return run


def trace(workload: Workload, argv: list[str], work: Path, deadline: float,
          tamper=None) -> tuple[list[Run], dict, list[str]]:
    stdout = work / "gnlab.out"
    plain = check(spawn("untraced run", [sys.executable, *GNLAB, *argv],
                        stdout, deadline), workload, stdout, work, tamper)
    out_bytes = stdout.stat().st_size + sum(
        p.stat().st_size for p in workload.out_files(work) if p.exists())
    spans_path = work / "spans.json"
    stdout = work / "traced.out"
    traced = check(spawn("traced run", [sys.executable,
                                        str(BENCH / "tracer.py"),
                                        str(spans_path), "--", *argv],
                         stdout, deadline), workload, stdout, work, tamper)
    if not (plain.ok and traced.ok):
        return [plain, traced], {}, []
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    values = layer_metrics(spans)
    # The replayed integration is extra work, not tracing overhead.
    traced_wall = traced.wall - values.get(STEP_SPAN + ".s", 0)
    values.update({
        "cli.cpu_s": plain.cpu,
        "cli.parallelism": plain.cpu / plain.wall,
        "cli.output_bytes": out_bytes,
        "trace.overhead": traced_wall / plain.wall,
    })
    cols = [s[8]["cols"] for s in spans["spans"]
            if s[1] == "poly.sparse_nullspace" and s[8]]
    print(f"  poly.sparse_nullspace.cols per call: "
          f"{'/'.join(map(str, cols)) or 'none'}")
    print(f"  trace overhead {values['trace.overhead']:.4f}: traced "
          f"{traced_wall:.4f} s / untraced {plain.wall:.4f} s")
    return [plain, traced], values, spans["absent"]


def run_workload(workload: Workload, seed: int, seconds: float, trace_on: bool,
                 spec: dict, tamper=None) -> dict:
    """Measure one workload and return the result object; its metrics are
    empty when no run succeeded.  `tamper(stdout, work)` may alter each
    output before it is checked (bench/selftest.py uses it)."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argv = workload.prepare(seed, work)
        print(f"{workload.name} seed {seed}: gnlab {' '.join(argv)}")
        if trace_on:
            runs, values, absent = trace(workload, argv, work, deadline, tamper)
            names = spec["per_layer"]
        else:
            runs, values = measure(workload, argv, work, seconds, deadline,
                                   tamper)
            absent = []
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(not r.ok for r in runs)
    print(f"  error_rate {failed / len(runs):.4f}: {failed} of {len(runs)} "
          "run(s) failed")
    metrics = {}
    for m in names if values else ():
        name = m["name"]
        source = DERIVED_FROM.get(name, name)
        missing = any(source == a or source.startswith(a + ".")
                      for a in absent)
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
        if trace_on:
            note = "  (absent)" if missing else ""
            print(f"  {name} {value:.6g} {m['unit']}{note}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gnlab" / "cli.py").is_file() \
            or not spec_path.is_file():
        print(f"error: no gnlab source tree or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), spec)
    if not result["metrics"]:
        print("error: no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
