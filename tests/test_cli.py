"""Command-line surface: outputs, exit codes, seeds, config files, and
byte determinism.  Everything goes through main(argv) in-process.
"""

import csv
import json

import pytest

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
    code, _, err = run(capsys, "verify", "--n", "7", "--N", "8")
    assert code == 2 and "ceiling" in err
    code, _, err = run(capsys, "verify", "--n", "3", "--N", "4",
                       "--ceiling-n", "2")
    assert code == 2 and "ceiling" in err


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
