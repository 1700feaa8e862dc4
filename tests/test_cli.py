"""Command-line surface: outputs, exit codes, seeds, config files, and
byte determinism.  Everything goes through main(argv) in-process.
"""

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnlab import BudgetExceeded, cli, integrate
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
    assert payload["schema"] == 1
    assert payload["n"] == 3 and payload["degree"] == 3
    assert payload["terms"] == 5
    assert len(payload["matrix"]) == 3
    assert payload["matrix"][1][1] == "-2*xm"


# SHA-256 of the whole stdout, as one json.dumps(indent=2, sort_keys=True)
# of the payload (term dicts included) writes it; pins whitespace, key
# order and the envelope around each polynomial, and the text form.
OUTPUT_SHA256 = {
    "casimir --n 6 --format json":
        "99beacc2c5cce26cedf3c2f06c7128b8172064723557cf1fd93bdfdd0cc4294e",
    "casimir --n 6":
        "47e3e3d2e10a1b1740169872631881805ce8a15d7979701dc309c62cc19e6f62",
    "integrals --n 3 --N 5 --format json":
        "34a6d51e04b4d0c0688caa8444d15278221b9c92805f0727b1d362bb56ae6649",
    "ansatz --n 4 --degree 4 --format json":
        "fc8b6cc35524c892027a12b76097ba9e8f8f85a0a4727dae17d3c09383f54620",
    "ansatz --n 5 --degree 4 --format json":
        "06de4391b5ee089ea2d41f2c1491b829039724d241dd180f3d24abf5ed61cc56",
    "ansatz --n 5 --degree 5 --format json":
        "d1def789ad4f7d2adb5456d06af249bc8d23c8863f17cc6158b246135724c4ed",
    "verify --n 5 --N 6 --seed 3 --format json":
        "67f6a3e1042032a4bbdf689746b42cfb33e6542dbfffa64b6accbcd1efb3eb2a",
    "verify --n 6 --format json":
        "fdb61e8a059a893278ef353e3d3ccb48c19b082e66b774eb88526209d35a3bdc",
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_bytes_golden(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == OUTPUT_SHA256[command]


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
                                 ("--x0", "0,0,0,inf", "x0")):
        code, out, err = run(capsys, "simulate", "--n", "2", "--N", "2",
                             f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "finite" in err and "Traceback" not in err


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
                          (["verify", "--n", "9", "--ceiling-n", "9"],
                           "budget"),
                          (["integrals", "--n", "4", "--N", "3"], "N must"),
                          (["ansatz", "--n", "4", "--degree", "4",
                            "--budget", "10"], "budget"),
                          (["ansatz", "--n", "4", "--degree", "0"], "degree")):
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


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["certified_rank"] == 4
    assert payload["nu"] == 2
    assert payload["dim"] == 6


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
    cfg.write_text("# comment\nalpha.1 = [1, -2, 3/2, 4]\nseed = 11\n")
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
    has been written must not leave a truncated file behind."""
    target = tmp_path / "c4.json"
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
    code, out, err = run(capsys, "casimir", "--n", "4", "--format", "json",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: MemoryError")
    assert len(written) == 1
    assert not target.exists()
