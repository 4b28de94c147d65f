"""CLI contract tests: output schema, determinism, exit codes, artifacts."""

import json
import subprocess
import sys
import time

import pytest

from qperiod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEqpaCommand:
    def test_finds_period(self, capsys):
        code, out, _ = run_cli(capsys, "eqpa", "--r", "6", "--m", "12", "--seed", "7")
        assert code == 0
        record = json.loads(out)
        assert record["output"] == 6
        assert record["command"] == "eqpa"
        assert record["seed"] == 7
        assert record["elapsed_ms"] is None

    def test_key_order_fixed(self, capsys):
        _, out, _ = run_cli(capsys, "eqpa", "--r", "3", "--m", "12")
        record = json.loads(out)
        assert list(record) == ["command", "inputs", "output", "counters", "seed", "elapsed_ms"]
        assert list(record["counters"]) == ["fourier_calls", "oracle_passes", "rounds"]

    def test_non_multiple_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "eqpa", "--r", "5", "--m", "12")
        assert code == 2
        assert out == ""
        assert "multiple" in err

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "eqpa", "--r", "4", "--m", "16", "--trace", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert {"sweep", "j", "d_before", "k", "fourier_calls"} <= set(rec)

    def test_timing_flag_reports_float(self, capsys):
        _, out, _ = run_cli(capsys, "--timing", "eqpa", "--r", "3", "--m", "6")
        assert isinstance(json.loads(out)["elapsed_ms"], float)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eqpa", "--r", "6", "--m", "12", "--seed", "3"),
            ("lcm", "--inputs", "4,6,10", "--bits", "5", "--seed", "1"),
            ("gcd", "--inputs", "12,18", "--bits", "5", "--seed", "2"),
            ("psu", "--sets", "1,2;2,3", "--universe", "4", "--seed", "4"),
            ("factor", "--n", "60", "--seed", "5"),
            ("qpa-compare", "--r", "6", "--m", "12", "--trials", "50", "--seed", "0"),
            ("bench", "--r", "4", "--m", "16", "--trials", "20", "--seed", "9"),
        ],
    )
    def test_identical_bytes_across_runs(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_transcript_but_not_output(self, capsys):
        _, a, _ = run_cli(capsys, "lcm", "--inputs", "4,6", "--bits", "5", "--seed", "1")
        _, b, _ = run_cli(capsys, "lcm", "--inputs", "4,6", "--bits", "5", "--seed", "2")
        assert json.loads(a)["output"] == json.loads(b)["output"] == 12


class TestProtocolCommands:
    def test_lcm(self, capsys):
        code, out, _ = run_cli(capsys, "lcm", "--inputs", "4,6,10", "--bits", "5", "--seed", "1")
        assert code == 0
        record = json.loads(out)
        assert record["output"] == 60
        assert record["counters"]["rounds"] == 3 * record["counters"]["oracle_passes"]

    def test_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "gcd", "--inputs", "12,18", "--bits", "5")
        assert code == 0
        assert json.loads(out)["output"] == 6

    def test_psu(self, capsys):
        code, out, _ = run_cli(capsys, "psu", "--sets", "1,2;2,3", "--universe", "4")
        assert code == 0
        assert json.loads(out)["output"] == [1, 2, 3]

    def test_psi(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--sets", "1,2;2,3", "--universe", "4")
        assert code == 0
        assert json.loads(out)["output"] == [2]

    def test_psi_empty_intersection(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--sets", "0,1;2,3", "--universe", "4")
        assert code == 0
        assert json.loads(out)["output"] == []

    def test_transcript_file(self, tmp_path, capsys):
        path = tmp_path / "transcript.jsonl"
        code, _, _ = run_cli(
            capsys, "lcm", "--inputs", "4,6", "--bits", "5", "--transcript", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines
        msg = json.loads(lines[0])
        assert list(msg) == ["round", "from", "to", "kind", "payload", "counters"]

    def test_bad_secret_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "lcm", "--inputs", "0,6", "--bits", "5")
        assert code == 2 and "outside" in err

    def test_bad_set_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "psu", "--sets", "9;1", "--universe", "4")
        assert code == 2


class TestFactorCommand:
    def test_sixty(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "60", "--seed", "0")
        assert code == 0
        assert json.loads(out)["output"]["factors"] == [2, 2, 3, 5]

    def test_fifteen_uses_quantum_path(self, capsys):
        _, out, _ = run_cli(capsys, "factor", "--n", "15", "--seed", "1")
        record = json.loads(out)
        assert record["output"]["factors"] == [3, 5]
        assert set(record["output"]["methods"]) == {"quantum-order-finding"}


class TestQpaCompare:
    def test_rates(self, capsys):
        code, out, _ = run_cli(
            capsys, "qpa-compare", "--r", "6", "--m", "12", "--trials", "300", "--seed", "0"
        )
        assert code == 0
        report = json.loads(out)["output"]
        assert report["eqpa_success_rate"] == 1.0
        assert abs(report["qpa_single_sample_success_rate"] - 1 / 3) < 0.07
        assert report["fourier_calls_each"]["qpa_single_sample"] == 1

    def test_trivial_period(self, capsys):
        _, out, _ = run_cli(capsys, "qpa-compare", "--r", "1", "--m", "8", "--trials", "20")
        report = json.loads(out)["output"]
        assert report["eqpa_success_rate"] == 1.0
        assert report["qpa_single_sample_success_rate"] == 1.0


class TestAuditCommand:
    def test_lcm_audit_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--protocol", "lcm", "--inputs", "4,6", "--bits", "5"
        )
        assert code == 0
        report = json.loads(out)["output"]
        assert report["passed"] is True
        assert report["violations"] == []

    def test_psi_audit_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--protocol", "psi", "--sets", "1,2;2,3", "--universe", "4"
        )
        assert code == 0
        assert json.loads(out)["output"]["passed"] is True

    def test_missing_arguments_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "--protocol", "lcm")
        assert code == 2


class TestBench:
    def test_eqpa_stats(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--r", "6", "--m", "12", "--trials", "25")
        assert code == 0
        report = json.loads(out)["output"]
        assert report["success_rate"] == 1.0
        assert report["fourier_calls"]["min"] <= report["fourier_calls"]["mean"]

    def test_qpa_algo(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--algo", "qpa", "--r", "6", "--m", "12", "--trials", "50")
        assert code == 0
        assert 0 <= json.loads(out)["output"]["success_rate"] <= 1


def test_unknown_flag_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "qperiod.cli", "eqpa", "--r", "3", "--m", "6", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qperiod.cli", "eqpa", "--r", "6", "--m", "12", "--seed", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["output"] == 6


def test_protocol_reject_exits_three(monkeypatch, capsys):
    import qperiod.mpqc as mpqc_mod

    monkeypatch.setattr(mpqc_mod, "_simulate_prep_pass", lambda *a, **k: 1)
    code, out, _ = run_cli(capsys, "lcm", "--inputs", "4,6", "--bits", "5")
    assert code == 3
    assert json.loads(out)["output"] is None


def test_lcm_period_past_budget_exits_two(capsys):
    # lcm(251, 241, 239, 233) ~ 3.4e9 is past the 2^24-point period budget
    code, out, err = run_cli(capsys, "lcm", "--inputs", "251,241,239,233", "--bits", "8")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_factor_61_bit_semiprime(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "factor", "--n", "2305842932978024483")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["output"]["factors"] == [1073741789, 2147483647]


def test_factor_past_the_rho_budget_exits_two(capsys):
    # (2^61 - 1)(2^89 - 1): rho gives up after its step budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "factor", "--n", "1427247692705959880439315947500961989719490561")
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    assert "rho steps" in err
    code, out, _ = run_cli(capsys, "factor", "--n", "2305842932978024483")
    assert code == 0
    assert json.loads(out)["output"]["factors"] == [1073741789, 2147483647]


def test_psi_over_full_eight_element_universe_exits_two(capsys):
    # the encodings have 24 bits; the inner GCD indexes primes against 2^24
    # without listing them, then the joint modulus is past the simulator's bound
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "psi", "--sets", "0,1,2,3,4,5,6,7;0,1,2,3,4,5,6,7", "--universe", "8")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
