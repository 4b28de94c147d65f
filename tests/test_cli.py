"""CLI contract tests: output schema, determinism, exit codes, artifacts."""

import hashlib
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

    # each case plants party 1's raw top-layer input on the wire: the secret 6,
    # or 35 = 5 * 7, the encoding of the set {2, 3}
    @pytest.mark.parametrize(
        "protocol, argv, planted",
        [
            ("lcm", ("--inputs", "4,6", "--bits", "5"), 6),
            ("psu", ("--sets", "1,2;2,3", "--universe", "4"), 35),
            ("psi", ("--sets", "1,2;2,3", "--universe", "4"), 35),
        ],
        ids=["lcm", "psu", "psi"],
    )
    def test_failed_audit_exits_three(self, monkeypatch, capsys, protocol, argv, planted):
        import qperiod.mpqc as mpqc_mod

        honest = getattr(mpqc_mod, f"{protocol}_protocol")

        def leaky(*args, **kwargs):
            result = honest(*args, **kwargs)
            result.transcript.log(mpqc_mod.KIND_INT, 1, 0, {"role": "debug", "value": planted})
            return result

        monkeypatch.setattr(mpqc_mod, f"{protocol}_protocol", leaky)
        code, out, _ = run_cli(capsys, "audit", "--protocol", protocol, *argv)
        assert code == 3
        report = json.loads(out)["output"]
        assert report["passed"] is False
        assert any(f"raw secret value {planted}" in v for v in report["violations"])


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


def test_lcm_of_four_8_bit_primes_runs_past_the_scan_budget(capsys):
    # lcm(251, 241, 239, 233) ~ 3.4e9 is past the 2^24-point budget of a
    # period scan; the joint function declares its residue moduli, so the
    # block engine takes the period from them and never scans
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "lcm", "--inputs", "251,241,239,233", "--bits", "8")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["output"] == 3368562317


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


def test_psi_over_full_eight_element_universe_prints_it(capsys):
    # the encodings have 24 bits; the inner GCD indexes primes against 2^24
    # without listing them, and the joint modulus k ~ 8.5e14 is block-engine work
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "psi", "--sets", "0,1,2,3,4,5,6,7;0,1,2,3,4,5,6,7", "--universe", "8")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["output"] == list(range(8))


def test_gcd_of_31_bit_primes_prints_the_prime(capsys):
    # the union of the radicals' primes is published as primes, so no prime
    # index past the sieve's cap is ever asked for
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "gcd", "--inputs", "2147483647,2147483647", "--bits", "31")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["output"] == 2147483647


def test_psu_over_ten_elements_at_three_parties(capsys):
    # k ~ 8.9e16: past 2^40, within reach of the block engine
    code, out, _ = run_cli(capsys, "psu", "--sets", "0,1,2;3,4,5;6,7,8,9", "--universe", "10")
    assert code == 0
    assert json.loads(out)["output"] == list(range(10))


@pytest.mark.parametrize(
    "argv, bits",
    [
        (("lcm", "--inputs", "5,7", "--bits", "70"), 70),
        # the GCD's inner LCM masks the radical 2 (the set {0}) at the 65 bits of
        # the full universe's encoding
        (("psi", "--sets", "0;0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15", "--universe", "16"), 65),
    ],
)
def test_masking_past_int64_exits_two(capsys, argv, bits):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: masking range at {bits} bits passes int64\n"


@pytest.mark.parametrize("command", ["lcm", "gcd"])
def test_negative_bits_exits_two_naming_the_bound(capsys, command):
    code, out, err = run_cli(capsys, command, "--inputs", "3,5", "--bits", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: bits must be >= 1, got -1\n"


@pytest.mark.parametrize("command", ["psu", "psi"])
def test_negative_universe_exits_two_naming_the_bound(capsys, command):
    code, out, err = run_cli(capsys, command, "--sets", ";", "--universe", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: universe size must be >= 0, got -3\n"


@pytest.mark.parametrize("argv", [
    ("lcm", "--inputs", "3,5", "--bits", "4"),
    ("eqpa", "--r", "3", "--m", "6"),
    ("factor", "--n", "60"),
], ids=["lcm", "eqpa", "factor"])
def test_negative_seed_exits_two_naming_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be >= 0\n"


@pytest.mark.parametrize("m", [(1 << 63) + 2, 1 << 64])
def test_eqpa_past_int64_points_exits_two(capsys, m):
    # an undeclared function is evaluated on int64 points, so m <= 2^63
    code, out, err = run_cli(capsys, "eqpa", "--r", "2", "--m", str(m))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [("eqpa",), ("qpa-compare", "--trials", "2"), ("bench", "--trials", "2")])
def test_modulus_past_two_to_the_63_names_the_bound(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--r", "2", "--m", str(1 << 64))
    assert code == 2
    assert out == ""
    assert err == (f"error: modulus {1 << 64} of an undeclared function exceeds 2^63: "
                   "its points must fit int64\n")


# SHA-256 of the stdout and of the --transcript file of fixed-seed protocol
# runs: the bytes must stay the same from one version of the code to the next.
_GOLDEN = [
    (("lcm", "--inputs", "4,6,10", "--bits", "5", "--seed", "1"),
     "879d2071a07684bc506e14abdfe266ba3a9c0917f1d4da55ca98f4c172d204ae",
     "d5a153e87a4c808a1c4c962b6ea655e0a4367e114a13944282e59d37b2752706"),
    (("gcd", "--inputs", "12,18", "--bits", "5"),
     "161ec91295ff56c74102791b9c1904023cc36648ecf37ee8c55b6870737ec5c5",
     "789d01f89bc955da3c891a0be05d6180cb4e3a5cbaee2a17c3647aec1f9b7cf0"),
    (("gcd", "--inputs", "245,175,35", "--bits", "8", "--seed", "4"),
     "2839c57207cde1338a77d8d0ccba3fa132c043529870ea92b9683ac637a217b2",
     "cb6fafb5f0d24b98903df3ab5ebadad7e91bb1edffbaf519f462f64c1e5aa0ec"),
    (("psu", "--sets", "1,2;2,3", "--universe", "4"),
     "e775784bffd36b933ea8b4bebd7480a0bda9313930f27309add4db965a0cf814",
     "beb5753f6897262077e83bb05c91a536facb7616314372aa0949a18281aebde4"),
    (("psi", "--sets", "1,2;2,3", "--universe", "4"),
     "aedd0d2b5f45da120bb71c443c898b88d8ff3c1a946f07d6649a4b5ca89ff7dc",
     "fe52fb5e9a72d2a31067c50a6628a80752fe952150c0676451b07cbb2eecd2f5"),
]


@pytest.mark.parametrize("argv, stdout_sha, transcript_sha", _GOLDEN, ids=[" ".join(argv) for argv, _, _ in _GOLDEN])
def test_protocol_bytes_match_recorded_digests(tmp_path, capsys, argv, stdout_sha, transcript_sha):
    path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, *argv, "--transcript", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(path.read_bytes()).hexdigest() == transcript_sha


def test_audit_bytes_match_recorded_digest(capsys):
    code, out, _ = run_cli(capsys, "audit", "--protocol", "psi", "--sets", "1,2;2,3", "--universe", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "4dc6426951584a1a0b0337fb527a6b3db1cff2b95b6e84af87b5e14f4d91c2dc"


# SHA-256 of the stdout (and of the --trace file, where one is written) of
# fixed-seed runs of the commands that run no protocol.
_GOLDEN_SINGLE_RUN = [
    (("eqpa", "--r", "4", "--m", "16", "--seed", "0"),
     "a37c6c217737494e68808c773be97e1dd81c637d8efcb14daeed75231d604c8c",
     "8b1d18ae8024607134826d17f0fa27c9bc9949f160b84d8a2f87a45e5c139d83"),
    (("qpa-compare", "--r", "6", "--m", "12", "--trials", "50", "--seed", "0"),
     "314f86418db2a17cf42a7870ddc646c8c4832f4b2dbfdb4feb1b6606226f5a4d", None),
    (("factor", "--n", "60", "--seed", "5"),
     "6accecf98421a708262121b51440ecdc901dcb19cfbb8881f3100630b89a2648", None),
    (("bench", "--r", "4", "--m", "16", "--trials", "20", "--seed", "9"),
     "b266351150016edcdcee45c991d9e9e46165d9bb6ddd0d15ae82ab22aa9d2d64", None),
    (("bench", "--algo", "qpa", "--r", "6", "--m", "12", "--trials", "50", "--seed", "3"),
     "456242c36fff046bf1d94eadf7ade5e4d10249f489859d7ffa3c60e8a608d58d", None),
]


@pytest.mark.parametrize("argv, stdout_sha, trace_sha", _GOLDEN_SINGLE_RUN,
                         ids=[" ".join(argv) for argv, _, _ in _GOLDEN_SINGLE_RUN])
def test_command_bytes_match_recorded_digests(tmp_path, capsys, argv, stdout_sha, trace_sha):
    path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, *argv, *(("--trace", str(path)) if trace_sha else ()))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    if trace_sha:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_without_trials_exits_two(capsys, trials):
    code, out, err = run_cli(capsys, "bench", "--r", "3", "--m", "6", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == "error: trials must be >= 1\n"


@pytest.mark.parametrize("argv, flag", [
    (("eqpa", "--r", "4", "--m", "16"), "--trace"),
    (("lcm", "--inputs", "4,6", "--bits", "5"), "--transcript"),
    (("psi", "--sets", "1,2;2,3", "--universe", "4"), "--transcript"),
], ids=["eqpa", "lcm", "psi"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path / "missing" / "out.jsonl"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing" in err


@pytest.mark.parametrize("argv, message", [
    (("qpa-compare", "--r", "6", "--m", "12", "--trials", "0"), "trials must be >= 1"),
    (("factor", "--n", "0"), "n must be >= 1"),
    (("audit", "--protocol", "psu"), "--sets and --universe are required"),
], ids=["qpa-compare-trials", "factor-n", "audit-psu-sets"])
def test_refused_input_exits_two_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
