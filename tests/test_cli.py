"""Command-line surface: outputs, exit codes, seeds, config files, and
byte determinism.  Everything goes through main(argv) in-process.
"""

import csv
import hashlib
import importlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import poly_json
from gnlab import BudgetExceeded, VarRegistry, cli, integrate
from gnlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_casimir_text_golden(capsys):
    code, out, _ = run(capsys, "casimir", "--n", "2")
    assert code == 0
    assert out == "h^2 + 4*xp*xm\n"


def test_casimir_json(capsys):
    code, out, _ = run(capsys, "casimir", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert payload["n"] == 3 and payload["degree"] == 3
    assert payload["terms"] == 5
    assert len(payload["matrix"]) == 3
    assert payload["matrix"][1][1] == "-2*xm"


# SHA-256 of the whole stdout, as one json.dumps(indent=2, sort_keys=True)
# of the payload (term dicts included) writes it; pins whitespace, key
# order and the envelope around each polynomial, and the text form.
OUTPUT_SHA256 = {
    "casimir --n 6 --format json":
        "705ee9ae5e54d4b74486e05ad85b21f4f8ed31e7aa69de5380d1d457a323c8ca",
    "casimir --n 6":
        "47e3e3d2e10a1b1740169872631881805ce8a15d7979701dc309c62cc19e6f62",
    # the odd and even splits of the half-row expansion where cancellation
    # is heavy: C_7 (2,461 terms) and C_8 (18,155 terms)
    "casimir --n 7 --format json":
        "3cdbc563da553396ba13133984372190d2e95f698df998560b503a3ba13d8406",
    "casimir --n 8":
        "7bf5e65073b79e8e452b68906e42299918b422540e7a8dcb10df178447b7fa36",
    "integrals --n 3 --N 5 --format json":
        "b20dd8c10a9b6747fb8aec2acc2c398e5df99860d2ef9e1caa214f23470208fd",
    "ansatz --n 4 --degree 4 --format json":
        "e71ccc20fed95e29d341ac4d53862220c34b236c17acad5f9164675299ef735e",
    "ansatz --n 5 --degree 4 --format json":
        "a26babcefe5c3916eb06a8646f0fd4f3786bdabacf8c20cd207d76d6ed9d8d4b",
    "ansatz --n 5 --degree 5 --format json":
        "44e6054b3a5a5fa2b26b0625eeb446fc1a0a99705f5bb492506a7a94de1cbe75",
    "verify --n 5 --N 6 --seed 3 --format json":
        "b0c77bbde7b14196709f3adcd7b8c63b75e9847fff159720e40066429bba11d5",
    "verify --n 6 --format json":
        "2bceb9abd661f98cfe4f3a8ce86eee0a92582c1421ee4b8537fa0e79b401a545",
    # certificates at scale: 7 generating fields of 28, and the Gram check
    # M = A A^T on the windows m = 1..6
    "verify --n 7 --N 7 --format json":
        "235afd3c90cb87915afce2a63d77590d4c8d7ea00659eea0678cf3e43302836e",
    # ten within-side pairs of window integrals per side through the
    # involution certificate
    "verify --n 4 --N 8 --format json":
        "88442ba4b866d6e89083751aded6c591c6b249d707bd6f82de4327462bd0817b",
    # 19 gradient rows from the Gram adjugates, 18 proper windows of
    # Poisson-map brackets, and the threshold rank of the parameter rows
    "verify --n 5 --N 14 --format json":
        "a9c06f2c2b01fb0d47525a8561b4c9ccdaa729937d34bd2c10e67eb72186db7c",
    # the same certificates with Fraction parameters (SIMULATE_CONFIG's
    # rows), so the Gram adjugates have Fraction entries
    "verify --n 4 --N 5 --config rational.cfg --format json":
        "3eb8d7a31ad8641514b15b626b7838f6581669a537a6130904136b9e4554d794",
    # C_8 (18,155 terms) through the annihilation certificate, and the
    # uniqueness sweep to degree 4 over 36 generators
    "verify --n 8 --N 8 --ceiling-n 8 --format json":
        "b4ca92a97a97a74198de6fb8ccc4948183aeae4fa0fc325af3d1a99d51bebe1c",
    # C_9 (152,531 terms) and its matrix through both certificates, each
    # built once
    "verify --n 9 --N 9 --ceiling-n 9 --format json":
        "6731fa655efcde56b52e708dc1b2c34fd5c854d46da63efc34f12d245233e3de",
    # the text forms, each written line by line
    "verify --n 4":
        "5043e2f7558301efdb0f0177971b1301677b4492adf65f71b1cb1538b5ad65ab",
    "integrals --n 3 --N 5":
        "1576be48dce78c3ad53a96635723ac08aa7b1e2453b441549f69dc4263403154",
    "ansatz --n 4 --degree 4":
        "40241bb4332e7ea191fb6823c183aa861f3f0404c380fcf46fa6592da7b2ab7a",
    "dump-rep --n 3":
        "5dd77b65a039a5d57a3b6837cf96afaac7cbc1cbabd3a8b58e887f7b59ac25c5",
    "dump-rep --n 3 --quotient":
        "5143bd77400657335c17bacff4b7505ea2798f8d52e8828126a47a9d77a6f03d",
    "rank --n 5":
        "5dec2ebf51be14a39433a739a98077f6225b105f2f2c50aa4d2100b3db4e9b28",
}


# SHA-256 of stdout and of the --out CSV of one short `simulate` run with
# fractional parameter rows, so that realising H substitutes Fraction
# images and the window integrals have Fraction coefficients.
SIMULATE_CONFIG = ("alpha.1 = [1/2, -3, 2/3, 5, -1/7]\n"
                   "alpha.2 = [4, 5/6, -1, 3/4, 2]\n")
SIMULATE_ARGV = ["simulate", "--n", "4", "--N", "5",
                 "--x0=0.3,-0.2,0.1,0.5,-0.4,0.2,0.1,-0.3,0.4,0.25",
                 "--t-end", "0.05"]
SIMULATE_SHA256 = {
    "stdout":
        "bd8712061bea21c919308b33622fb243e65f9e14f0cd8b467d5f20a6034573f2",
    "csv":
        "0d6074853f05bb68d7e6d46f846266dc71cb329bf5d662cbb25f09c5ecb57886",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_bytes_golden(capsys, tmp_path, monkeypatch, command):
    # the file a `--config rational.cfg` names holds SIMULATE_CONFIG's rows
    (tmp_path / "rational.cfg").write_text(SIMULATE_CONFIG)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == OUTPUT_SHA256[command]


def test_simulate_bytes_golden(tmp_path, capsys):
    cfg = tmp_path / "rational.cfg"
    cfg.write_text(SIMULATE_CONFIG)
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, *SIMULATE_ARGV, "--config", str(cfg),
                       "--out", str(out_csv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        SIMULATE_SHA256["stdout"]
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == \
        SIMULATE_SHA256["csv"]


def test_casimir_size_guard_exits_2(capsys, monkeypatch):
    def no_det(matrix):
        raise AssertionError("expanded a level above the limit")

    monkeypatch.setattr(importlib.import_module("gnlab.casimir"), "det",
                        no_det)
    code, out, err = run(capsys, "casimir", "--n", "11")
    assert code == 2 and out == ""
    assert err.startswith("error: C_11 is too large to expand")


def test_casimir_rejects_low_level(capsys):
    code, _, err = run(capsys, "casimir", "--n", "1")
    assert code == 2
    assert "n = 2" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--N", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    checks = {c["check"] for c in payload["checks"]}
    assert {"jacobi", "structure", "annihilation", "intertwining",
            "uniqueness", "route_equivalence", "vanishing", "involution",
            "independence", "realization", "coadjoint_fields",
            "faithful_representation", "quotient_representation",
            "grading"} <= checks
    assert all(c["passed"] for c in payload["checks"])


def test_verify_builds_the_casimir_once(monkeypatch):
    """The four checks that read C_n share the one the context builds."""
    casimir_module = importlib.import_module("gnlab.casimir")
    real = casimir_module.casimir
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name in ("gnlab.casimir", "gnlab.coalgebra", "gnlab.cli"):
        monkeypatch.setattr(importlib.import_module(name), "casimir",
                            counting)
    args = cli.build_parser().parse_args(["verify", "--n", "4", "--N", "4"])
    cfg = cli._resolve_config(args, need_N=True)
    reports = cli._verify_reports(cfg, cli._context(cfg), 3)
    assert len(reports) == 16 and all(r.passed for r in reports)
    assert len(calls) == 1


def test_verify_builds_no_integral(monkeypatch):
    """No check of `verify` reads the integrals: in one process, all 16
    leave the context's integral cache unbuilt and expand no building
    block, with N > n and with N = n."""
    coalgebra = importlib.import_module("gnlab.coalgebra")
    real = coalgebra.building_block
    blocks = []

    def counting(ctx, indices):
        blocks.append(indices)
        return real(ctx, indices)

    monkeypatch.setattr(coalgebra, "building_block", counting)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    for n, N in ((4, 7), (6, 6)):
        args = cli.build_parser().parse_args(
            ["verify", "--n", str(n), "--N", str(N)])
        cfg = cli._resolve_config(args, need_N=True)
        ctx = cli._context(cfg)
        reports = cli._verify_reports(cfg, ctx, 3)
        assert len(reports) == 16 and all(r.passed for r in reports)
        assert "integrals" not in vars(ctx)
    assert blocks == []


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--N", "2")
    assert code == 0
    assert out.splitlines()[0] == "verify n=2 N=2 seed=0"
    assert out.rstrip().endswith("all checks passed")


def test_verify_respects_ceiling(capsys):
    code, _, err = run(capsys, "verify", "--n", "8", "--N", "8")
    assert code == 2 and "ceiling" in err
    # n = 7 is within the default ceiling, so only its small N is refused
    code, _, err = run(capsys, "verify", "--n", "7", "--N", "6")
    assert code == 2 and "ceiling" not in err and "N must be at least n" in err
    code, _, err = run(capsys, "verify", "--n", "3", "--N", "4",
                       "--ceiling-n", "2")
    assert code == 2 and "ceiling" in err


def _fork_calls(monkeypatch, cpus: int, then=None) -> list:
    """Let the CLI see `cpus` CPUs and count its `os.fork` calls; `then`
    runs in both processes right after each fork, with fork's result."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    real = os.fork
    calls = []

    def fork():
        calls.append(None)
        pid = real()
        if then is not None:
            then(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _worker_first(pid):
    """In the parent, wait until the worker has exited (leaving it to be
    reaped), so the worker claims the first check."""
    deadline = time.monotonic() + 30
    while pid and os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT
                            | os.WNOHANG) is None:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            raise AssertionError("the worker did not finish in 30 s")
        time.sleep(0.005)


def _parent_first(pid):
    """In the worker, sleep until the parent kills it, so the parent claims
    the first check."""
    if pid == 0:
        time.sleep(10)


@pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1)],
                         ids=["one-cpu", "two-cpus"])
def test_verify_output_is_the_same_with_and_without_a_worker(
        capsys, monkeypatch, cpus, forks):
    """With two CPUs one forked worker shares the checks (the fork count
    rules out a silent fall back to one process); the bytes are the same."""
    command = "verify --n 5 --N 6 --seed 3 --format json"
    calls = _fork_calls(monkeypatch, cpus)
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and len(calls) == forks
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == OUTPUT_SHA256[command]


@pytest.mark.parametrize("cpus, then, killed", [(1, None, []),
                                                (2, _worker_first, [False]),
                                                (2, _parent_first, [True])],
                         ids=["in-process", "worker", "parent"])
def test_a_check_over_budget_exits_2_in_either_process(capsys, monkeypatch,
                                                       cpus, then, killed):
    """The error and exit code are those of one process; a worker is
    killed when the parent's own check raises, and always reaped."""
    def over_budget(alg):
        raise BudgetExceeded("jacobi over budget")

    monkeypatch.setattr(cli, "check_jacobi", over_budget)
    calls = _fork_calls(monkeypatch, cpus, then)
    real_waitpid, statuses = os.waitpid, []

    def waitpid(pid, options):
        got = real_waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", waitpid)
    assert run(capsys, "verify", "--n", "3", "--N", "4") \
        == (2, "", "error: jacobi over budget\n")
    assert len(calls) == cpus - 1
    assert [os.WIFSIGNALED(s) for s in statuses] == killed


def test_verify_expands_c_n_and_its_identity_once(capsys, monkeypatch):
    """In one process, `verify --n 5 --N 5` takes det of M_5 once, in
    `casimir`, and sums the right-hand side -(Q_g M + M Q_g^T)_ij once for
    each of the 15 generators g and 25 entries (i, j): the annihilation
    and intertwining checks share C_5 and the identity."""
    casimir_module = importlib.import_module("gnlab.casimir")
    real_det, real_sum = casimir_module.det, casimir_module.poly_sum
    sizes, sums = [], []

    def det(rows):
        sizes.append(len(rows))
        return real_det(rows)

    def poly_sum(registry, polys):
        sums.append(None)
        return real_sum(registry, polys)

    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    monkeypatch.setattr(casimir_module, "det", det)
    monkeypatch.setattr(casimir_module, "poly_sum", poly_sum)
    code, out, _ = run(capsys, "verify", "--n", "5", "--N", "5")
    assert code == 0 and out.endswith("all checks passed\n")
    assert sizes == [5]
    assert len(sums) == 15 * 5 * 5


def _verify_5_6_matches_its_golden(capsys):
    command = "verify --n 5 --N 6 --seed 3 --format json"
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == OUTPUT_SHA256[command]


def test_the_parent_runs_the_checks_of_a_worker_that_vanishes(capsys,
                                                              monkeypatch):
    """A worker that ends without sending its Reports costs time, not the
    run: the parent runs the check the worker claimed, and the report is
    that of one process."""
    parent, real, ran = os.getpid(), cli.check_jacobi, []

    def vanish(alg):
        if os.getpid() != parent:
            os._exit(0)
        ran.append(None)
        return real(alg)

    monkeypatch.setattr(cli, "check_jacobi", vanish)
    calls = _fork_calls(monkeypatch, 2, _worker_first)
    _verify_5_6_matches_its_golden(capsys)
    assert len(calls) == 1 and len(ran) == 1


def test_the_parent_runs_the_checks_of_a_worker_that_cannot_pickle(
        capsys, monkeypatch):
    def unpicklable(obj, *args, **kwargs):
        raise pickle.PicklingError("cannot pickle the Reports")

    monkeypatch.setattr(pickle, "dumps", unpicklable)
    calls = _fork_calls(monkeypatch, 2)
    _verify_5_6_matches_its_golden(capsys)
    assert len(calls) == 1


def test_verify_runs_in_one_process_where_fork_fails(capsys, monkeypatch):
    def no_fork():
        raise BlockingIOError("no process can be forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    _verify_5_6_matches_its_golden(capsys)


def test_exact_commands_do_not_import_numpy():
    """Only `simulate` needs numpy, so the CLI and `verify` leave it out."""
    script = ("import contextlib, io, sys\n"
              "import gnlab.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = gnlab.cli.main(['verify', '--n', '3', '--N', '4'])\n"
              "assert code == 0, code\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv, preset, want", [
    (["simulate", "--n", "2", "--N", "3", "--t-end", "0.01"], None, "1"),
    (["simulate", "--n", "2", "--N", "3", "--t-end", "0.01"], "3", "3"),
    (["verify", "--n", "3", "--N", "4"], None, None)])
def test_simulate_asks_for_one_openblas_thread(argv, preset, want):
    """`simulate` sets OPENBLAS_NUM_THREADS to 1 before numpy loads unless
    it is set already; `verify` leaves the environment alone."""
    script = ("import contextlib, io, os, sys\n"
              "import gnlab.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = gnlab.cli.main({argv!r})\n"
              "assert code == 0, code\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{want}\n"


def _cli_process(*argv, **kwargs):
    """The CLI in a fresh interpreter, on this checkout's sources."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from gnlab.cli import main; sys.exit(main())", *argv],
        env={**os.environ, "PYTHONPATH": src}, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_early_ends_quietly_with_exit_1(monkeypatch,
                                                             unbuffered):
    # Under PYTHONUNBUFFERED stdout writes straight to the raw pipe, where a
    # write cut short by the reader's close must not pass for a whole one.
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    # about 490 KB of JSON, far more than a pipe holds, so the CLI is still
    # writing when the reader goes
    proc = _cli_process("casimir", "--n", "7", "--format", "json",
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_unbuffered_stdout_writes_the_whole_report(monkeypatch):
    """Written straight to a raw pipe, C_7's JSON arrives whole."""
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    command = "casimir --n 7 --format json"
    proc = _cli_process(*command.split(), stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE)
    out, err = proc.communicate()
    assert proc.returncode == 0 and err == b""
    assert hashlib.sha256(out).hexdigest() == OUTPUT_SHA256[command]


def test_a_report_takes_a_few_writes(monkeypatch):
    """C_7's JSON, about 490 KB in 2,461 terms, goes to stdout in blocks of
    at least 64 Ki characters, not a write per term."""
    class CountingStream(io.StringIO):
        writes = 0

        def write(self, text):
            CountingStream.writes += 1
            return super().write(text)

    stream = CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["casimir", "--n", "7", "--format", "json"]) == 0
    digest = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
    assert digest == OUTPUT_SHA256["casimir --n 7 --format json"]
    assert CountingStream.writes <= 12


class ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 1,000 bytes a call, as a pipe may."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b[:1000])
        self.data += taken
        return len(taken)


def test_short_writes_to_a_raw_stdout_lose_nothing(monkeypatch):
    """A text stdout over a raw stream ignores what a short write leaves
    over, so the report must go to the raw stream until all of it is out."""
    raw = ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        raw, encoding="utf-8", write_through=True))
    command = "casimir --n 7 --format json"
    assert main(command.split()) == 0
    assert hashlib.sha256(raw.data).hexdigest() == OUTPUT_SHA256[command]


def test_an_unwritable_out_path_still_exits_2_with_its_error(tmp_path):
    target = tmp_path / "missing" / "c.json"
    proc = _cli_process("casimir", "--n", "3", "--out", str(target),
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error: [Errno 2] No such file or directory")
    assert not target.exists()


def test_verify_rejects_small_N(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--N", "2")
    assert code == 2
    assert "N must be at least n" in err


def test_verify_byte_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code = main(["verify", "--n", "2", "--N", "3", "--seed", "5",
                     "--format", "json", "--out", str(target)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_integrals_text(capsys):
    code, out, _ = run(capsys, "integrals", "--n", "2", "--N", "3",
                       "--side", "left")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("left m=2 sites=[1,2]:")
    assert "q1" in lines[0]


def test_integrals_json_alpha_echo(capsys):
    code, out, _ = run(capsys, "integrals", "--n", "3", "--N", "4",
                       "--format", "json", "--alpha-seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_seed"] == 2
    assert set(payload["sides"]) == {"left", "right"}
    members = payload["sides"]["left"]
    assert [m["m"] for m in members] == [3, 4]
    assert members[0]["window"] == [1, 3]
    assert list(payload["alpha"]) == ["1"]


def test_simulate_smoke_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", "--n", "2", "--N", "3",
                       "--step", "0.01", "--t-end", "1",
                       "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["samples"] == 101
    assert set(payload["drift"]) == {"H", "left_m2", "left_m3", "right_m2"}
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q1", "q2", "q3", "p1", "p2", "p3",
                       "H", "left_m2", "left_m3", "right_m2"]
    assert len(rows) == 102
    assert float(rows[1][0]) == 0.0


def test_simulate_custom_hamiltonian_and_x0(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--H", "h", "--x0", "0.1,0.2,0.3,0.4",
                       "--step", "0.01", "--t-end", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["x0"] == [0.1, 0.2, 0.3, 0.4]
    assert payload["H"] == "h"


def test_simulate_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--H", "nope + 1")
    assert code == 2 and "Hamiltonian" in err
    code, _, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--x0", "1,2,3")
    assert code == 2 and "components" in err
    code, _, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--step", "-1")
    assert code == 2
    for flag, value, message in (("--step", "nan", "step"),
                                 ("--step", "inf", "step"),
                                 ("--t-end", "nan", "t-end"),
                                 ("--t-end", "inf", "t-end"),
                                 ("--x0", "nan,0,0,0", "x0"),
                                 ("--x0", "0,0,0,inf", "x0"),
                                 ("--drift-threshold", "inf",
                                  "drift-threshold")):
        code, out, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                             f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "finite" in err and "Traceback" not in err
    # a zero threshold is valid: a run without steps has no drift
    code, out, _ = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--t-end", "0", "--drift-threshold", "0")
    assert code == 0 and json.loads(out)["threshold"] == 0.0


def test_simulate_hamiltonian_takes_generators_not_phase_variables(capsys):
    code, out, err = run(capsys, "simulate", "--n", "3", "--N", "4",
                         "--H", "xp + q1")
    assert code == 2 and out == ""
    assert err == "error: bad Hamiltonian: unknown variable 'q1'\n"


def test_simulate_size_budget_exits_2_before_allocating(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a trajectory over the budget")

    monkeypatch.setattr(np, "empty", no_allocation)
    code, out, err = run(capsys, "simulate", "--step", "1e-9",
                         "--t-end", "10")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_simulate_stepping_golden(tmp_path, capsys):
    # SHA-256 of the t, q and p columns (header included, rows joined by
    # newlines) as the row-by-row NumPy integrator wrote them; the
    # plain-float steppers must keep every bit.
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--n", "2", "--N", "3",
                     "--t-end", "0.5", "--out", str(out_csv))
    assert code == 0
    with out_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 502
    text = "\n".join(",".join(row[:7]) for row in rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "c7a5713b123281a0f5dc9ad4d2e4e0314292c80d5237ffd09d88a947f7380304")


def per_cell_csv(N, names, traj):
    """The trajectory CSV as the per-cell writer wrote it: `repr(float(v))`
    for every cell, one `writerow` per sample."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"q{k}" for k in range(1, N + 1)]
                    + [f"p{k}" for k in range(1, N + 1)] + ["H"] + names)
    for i in range(traj.times.shape[0]):
        row = [repr(float(traj.times[i]))]
        row += [repr(float(v)) for v in traj.states[i]]
        row.append(repr(float(traj.observables["H"][i])))
        row += [repr(float(traj.observables[nm][i])) for nm in names]
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv, expect", [
    (["--n", "2", "--N", "3", "--t-end", "2.5"], 0),  # 2,501 rows
    (["--H", "xp + xm^3", "--x0", "3,3,3,0,0,0", "--step", "0.01",
      "--t-end", "5"], 1),  # diverges: NaN rows, and the CSV is kept
])
def test_simulate_csv_matches_the_per_cell_writer(tmp_path, capsys,
                                                  monkeypatch, argv, expect):
    runs = []

    def recording(system, x0, step, t_end, **kwargs):
        traj = integrate(system, x0, step, t_end, **kwargs)
        runs.append((system.ctx.N, list(kwargs["observables"]), traj))
        return traj

    monkeypatch.setattr(cli, "integrate", recording)
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", *argv, "--out", str(out_csv))
    assert code == expect and len(runs) == 1
    N, names, traj = runs[0]
    assert np.isnan(traj.states[-1]).all() == bool(expect)
    assert out_csv.read_bytes() == per_cell_csv(N, names, traj)


def test_unwritable_out_exits_2_before_integrating(tmp_path, capsys,
                                                   monkeypatch):
    def no_computation(*args, **kwargs):
        raise AssertionError("computed before opening --out")

    # each command's compute step, which must not run before the open
    for step in ("integrate", "casimir", "_verify_reports", "integral_set",
                 "solve_ansatz", "build_gn", "beltrametti_blasi"):
        monkeypatch.setattr(cli, step, no_computation)
    missing = tmp_path / "missing" / "out.txt"
    for argv in (["casimir", "--n", "10"],
                 ["simulate", "--t-end", "0.1"],
                 ["verify", "--n", "6"],
                 ["integrals", "--n", "3", "--N", "5"],
                 ["ansatz", "--n", "4", "--degree", "4"],
                 ["dump-rep", "--n", "3"],
                 ["rank", "--n", "3"]):
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err


def test_refused_arguments_leave_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    for argv, message in ((["casimir", "--n", "11"], "too large"),
                          (["verify", "--n", "8", "--N", "8"], "ceiling"),
                          (["verify", "--n", "4", "--N", "3"], "N must"),
                          (["verify", "--n", "9", "--ceiling-n", "9",
                            "--max-ansatz-degree", "5"], "budget"),
                          (["verify", "--n", "11", "--N", "11",
                            "--ceiling-n", "11", "--max-ansatz-degree", "1"],
                           "C_11 is too large to expand"),
                          (["integrals", "--n", "4", "--N", "3"], "N must"),
                          (["ansatz", "--n", "4", "--degree", "4",
                            "--budget", "10"], "budget"),
                          (["ansatz", "--n", "4", "--degree", "0"], "degree"),
                          (["ansatz", "--n", "4", "--degree", "2",
                            "--budget", "0"], "budget must be at least 1"),
                          (["ansatz", "--n", "4", "--degree", "2",
                            "--budget", "-5"], "budget must be at least 1"),
                          (["rank", "--n", "41"], "too large"),
                          (["dump-rep", "--n", "41"], "too large"),
                          (["verify", "--n", "2", "--N", "200"], "1,333,300"),
                          (["integrals", "--n", "2", "--N", "200"],
                           "1,333,300 (window, site subset) pairs per side"),
                          (["simulate", "--n", "2", "--N", "200"], "1,333,300"),
                          (["verify", "--n", "24", "--N", "24"], "level 24"),
                          (["integrals", "--n", "24", "--N", "24"],
                           "building blocks of level 24 are too large"),
                          (["simulate", "--n", "24", "--N", "24"], "level 24"),
                          (["verify", "--n", "4", "--max-ansatz-degree", "0"],
                           "max-ansatz-degree must be at least 1"),
                          (["verify", "--n", "4", "--max-ansatz-degree", "-2"],
                           "max-ansatz-degree must be at least 1"),
                          (["simulate", "--drift-threshold", "nan"],
                           "drift-threshold must be nonnegative and finite"),
                          (["simulate", "--drift-threshold", "-1"],
                           "drift-threshold must be nonnegative and finite")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "" and message in err
        assert target.read_text() == "kept\n"


def test_simulate_removes_its_csv_when_integration_fails(tmp_path, capsys,
                                                         monkeypatch):
    def over_budget(*args, **kwargs):
        raise BudgetExceeded("trajectory over budget")

    monkeypatch.setattr(cli, "integrate", over_budget)
    out_csv = tmp_path / "traj.csv"
    code, out, err = run(capsys, "simulate", "--out", str(out_csv))
    assert code == 2 and out == "" and "budget" in err
    assert not out_csv.exists()
    # a symlink (such as /dev/stdout) is not removed, only its target cut
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    code, _, _ = run(capsys, "simulate", "--out", str(link))
    assert code == 2 and link.is_symlink() and target.read_text() == ""


def test_simulate_over_budget_leaves_an_existing_out_file(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    out_csv.write_text("kept\n")
    code, out, err = run(capsys, "simulate", "--step", "1e-9",
                         "--out", str(out_csv))
    assert code == 2 and out == "" and "budget" in err
    assert out_csv.read_text() == "kept\n"


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_divergence_fails_with_strict_json(capsys):
    code, out, _ = run(capsys, "simulate", "--H", "xp + xm^3",
                       "--x0", "3,3,3,0,0,0", "--step", "0.01",
                       "--t-end", "5")
    assert code == 1
    payload = strict_json(out)
    assert payload["passed"] is False
    assert payload["drift"]["H"]["max_relative_deviation"] is None


def test_simulate_degree_overflow_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--H", "xp^300", "--t-end", "0")
    assert code == 2 and "degree" in err


def test_simulate_leapfrog_requires_separable(capsys):
    code, _, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                       "--H", "h", "--scheme", "leapfrog",
                       "--step", "0.01", "--t-end", "0.1")
    assert code == 2 and "leapfrog" in err


@pytest.mark.parametrize("error", [ZeroDivisionError("division by zero"),
                                   OverflowError("result too large"),
                                   MemoryError()])
def test_arithmetic_and_memory_errors_exit_2(capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_casimir", fail)
    code, out, err = run(capsys, "casimir", "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {type(error).__name__}")
    assert "Traceback" not in err


def test_dump_rep_json(capsys):
    code, out, _ = run(capsys, "dump-rep", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["representation"] == "faithful"
    assert payload["size"] == 2
    images = {img["generator"]: img["matrix"] for img in payload["images"]}
    assert images["h"] == [[1, 0], [0, -1]]
    assert images["xp"] == [[0, 1], [0, 0]]
    code, out, _ = run(capsys, "dump-rep", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert len(payload["images"]) == 6  # T_3 generators, each one 4x4
    assert all(len(img["matrix"]) == 4 for img in payload["images"])
    code, out, _ = run(capsys, "dump-rep", "--n", "3", "--quotient",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["representation"] == "quotient"
    assert payload["size"] == 3
    images = {img["generator"]: img["matrix"] for img in payload["images"]}
    assert images["z1_1"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_json_writer_streams_the_dumps_text(monkeypatch):
    """Polynomials nested in lists and dicts, at several indents, inside an
    envelope of many chunks written in blocks of five: the text is
    ``json.dumps(indent=2, sort_keys=True)`` of the payload with each
    polynomial given as its parsed JSON form."""
    monkeypatch.setattr(cli, "_BLOCK", 5)
    reg = VarRegistry(["a", "b"])
    a, b = reg.poly("a"), reg.poly("b")
    payload = {"z": [a * b - 3, 1, {"q": b ** 2 * Fraction(1, 2),
                                    "xs": list(range(40))}],
               "a": a, "none": None, "s": "text", "empty": reg.zero()}
    pieces: list[str] = []
    cli._write_json(payload, pieces.append)
    plain = json.loads(json.dumps(payload, default=lambda p: json.loads(
        poly_json(p))))
    assert "".join(pieces) == \
        json.dumps(plain, indent=2, sort_keys=True) + "\n"
    # 40 list items alone are 40 chunks, so the envelope takes many blocks
    assert 10 < len(pieces) < 60


def test_json_writer_refuses_the_placeholder_and_foreign_objects():
    with pytest.raises(RuntimeError, match="placeholder"):
        cli._write_json({"k": cli._SLOT}, lambda text: None)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._write_json({"k": {1}}, lambda text: None)


def test_dump_rep_json_writes_in_blocks(capsys, monkeypatch):
    """dump-rep's envelope is all integers, about one chunk each: at n = 5
    the faithful images are 15 matrices of 8 x 8, 15 * (64 + 8) chunks and
    more, written in a few blocks rather than one call per chunk."""
    writes = []
    real = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda payload, write: real(
        payload, lambda text: (writes.append(text), write(text))))
    code, out, _ = run(capsys, "dump-rep", "--n", "5", "--format", "json")
    assert code == 0 and json.loads(out)["size"] == 8
    assert "".join(writes) == out
    assert len(writes) <= 3


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == payload["rank_upper_bound"] == 4
    assert payload["nu"] == 2
    assert payload["dim"] == 6
    assert not {"certified_rank", "trials"} & payload.keys()
    code, out, _ = run(capsys, "rank", "--n", "3")
    assert code == 0 and out == "rank 4 (upper bound 4), nu 2\n"


def test_rank_exits_1_when_the_bounds_differ(capsys, monkeypatch):
    algebra = importlib.import_module("gnlab.algebra")
    exact = algebra.rank_rational
    monkeypatch.setattr(algebra, "rank_rational", lambda rows: exact(rows) - 2)
    code, out, _ = run(capsys, "rank", "--n", "3")
    assert code == 1 and out == "rank 2 (upper bound 4), nu 4\n"


def test_rank_has_no_trials_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--n", "3", "--trials", "3"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["casimir", "--n", "3"],
                                  ["integrals", "--n", "2", "--N", "3"],
                                  ["simulate"],
                                  ["dump-rep", "--n", "3"],
                                  ["rank", "--n", "3"],
                                  ["ansatz", "--n", "3", "--degree", "2"]],
                         ids=lambda argv: argv[0])
def test_only_verify_has_a_ceiling_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--ceiling-n", "9"])
    assert exc.value.code == 2
    assert "--ceiling-n" in capsys.readouterr().err


def test_simulate_has_no_format_option(capsys):
    """simulate prints JSON whatever the flag, so it declares none."""
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "dump-rep"])
def test_matrix_size_guard_exits_2(capsys, monkeypatch, command):
    def no_allocation(*args, **kwargs):
        raise AssertionError("built a level above the limit")

    for step in ("beltrametti_blasi", "build_gn"):
        monkeypatch.setattr(cli, step, no_allocation)
    top = cli.MAX_MATRIX_N
    code, out, err = run(capsys, command, "--n", str(top + 1))
    assert code == 2 and out == ""
    assert err.startswith(f"error: n = {top + 1} is too large for {command}")


def test_ansatz_command(capsys):
    code, out, _ = run(capsys, "ansatz", "--n", "2", "--degree", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["monomials"] == 6
    code, _, err = run(capsys, "ansatz", "--n", "4", "--degree", "4",
                       "--budget", "10")
    assert code == 2 and "budget" in err


def test_ansatz_budget_counts_weight_zero_monomials(capsys):
    """(6, 6) has 230,230 monomials but builds only the 41,034 of weight 0,
    which fit the default budget; `monomials` still counts all of them."""
    code, out, _ = run(capsys, "ansatz", "--n", "6", "--degree", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["monomials"], payload["dimension"]) == (230230, 5006)
    code, out, err = run(capsys, "ansatz", "--n", "6", "--degree", "6",
                         "--budget", "41033")
    assert code == 2 and out == ""
    assert err == ("error: 41034 weight-0 monomials of degree 6 exceed the "
                   "budget 41033\n")


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("GN_LAB_SEED", "7")
    code, out, _ = run(capsys, "rank", "--n", "2", "--seed", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    monkeypatch.setenv("GN_LAB_SEED", "seven")
    code, _, err = run(capsys, "rank", "--n", "2")
    assert code == 2 and "GN_LAB_SEED" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # rows above n - 2 are ignored
    cfg.write_text("# comment\nalpha.1 = [1, -2, 3/2, 4]\nseed = 11\n"
                   "alpha.2 = [5, 6, 7, 8]\n")
    code, out, _ = run(capsys, "integrals", "--n", "3", "--N", "4",
                       "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == {"1": ["1", "-2", "3/2", "4"]}
    assert payload["alpha_seed"] is None


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n")
    code, _, err = run(capsys, "rank", "--n", "2", "--config", str(bad))
    assert code == 2 and "unknown key" in err
    bad.write_text("alpha.1 = 1, 2\n")
    code, _, err = run(capsys, "integrals", "--n", "3", "--N", "2",
                       "--config", str(bad))
    assert code == 2
    bad.write_text("alpha.1 = [1/0, 2, 3]\n")
    code, _, err = run(capsys, "integrals", "--n", "3", "--N", "3",
                       "--config", str(bad))
    assert code == 2 and "config line 1: bad rational" in err
    code, _, err = run(capsys, "rank", "--n", "2", "--config",
                       str(tmp_path / "missing.cfg"))
    assert code == 2 and "cannot read" in err
    for text, message in (
            ("alpha.1 = [1, 2, 3]\nalpha.1 = [4, 5, 6]\n",
             "config line 2: alpha.1 given twice"),
            ("alpha.1 = [1, 2, 3]\nalpha.01 = [4, 5, 6]\n",
             "config line 2: alpha.1 given twice"),
            ("alpha.1 = [1, 2, 3]\nalpha.-2 = [9, 9]\n",
             "config line 2: row index -2 is not positive"),
            ("alpha.0 = [9, 9, 9]\nalpha.1 = [1, 2, 3]\n",
             "config line 1: row index 0 is not positive"),
            ("seed = 1\nalpha.1 = [1, 2, 3]\nseed = 2\n",
             "config line 3: seed given twice"),
            ("alpha_seed = 1\nalpha.1 = [1, 2, 3]\nalpha-seed = 2\n",
             "config line 3: alpha_seed given twice")):
        bad.write_text(text)
        code, out, err = run(capsys, "integrals", "--n", "3", "--N", "3",
                             "--config", str(bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_config_missing_alpha_row(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("alpha.1 = [1, 2, 3, 4, 5]\n")
    code, _, err = run(capsys, "integrals", "--n", "4", "--N", "5",
                       "--config", str(cfg))
    assert code == 2 and "alpha rows" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "c2.txt"
    code = main(["casimir", "--n", "2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == "h^2 + 4*xp*xm\n"


def test_failed_write_removes_out_file(tmp_path, capsys, monkeypatch):
    """The JSON is streamed into --out, so a failure after the first piece
    has been written must not leave a truncated file behind.  C_7's JSON,
    about 490 KB, is written in several blocks."""
    target = tmp_path / "c7.json"
    written = []

    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)

        def write(text):
            if written:
                raise MemoryError
            written.append(text)
            return type(fh).write(fh, text)

        fh.write = write
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, out, err = run(capsys, "casimir", "--n", "7", "--format", "json",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: MemoryError")
    assert len(written) == 1
    assert not target.exists()
