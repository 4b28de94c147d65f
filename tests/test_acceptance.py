"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with shared workloads (the 5000-run exactness sweep, the
exhaustive protocol sweep) compute them once in module fixtures.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from qperiod.amplify import (
    MASS_TOL,
    PhaseFlipStep,
    PrepStep,
    ReversibleProgram,
    amplification_operator,
    boost_from_half,
)
from qperiod.cli import main as cli_main
from qperiod.factorint import _shor_split_attempt, encode_set
from qperiod.mpqc import (
    KIND_INT,
    gcd_protocol,
    lcm_protocol,
    leakage_audit,
    psi_protocol,
    psu_protocol,
)
from qperiod.periodfind import (
    PeriodicFunction,
    brute_force_period,
    eqpa,
    fourier_sampling_program,
    goodness,
    marked_program,
)
from qperiod.qstate import GoodPredicate, RegisterLayout, good_mass

TOL = 1e-9


def ceil_log2(x: int) -> int:
    return max(x - 1, 0).bit_length()


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {text}")


# ---------------------------------------------------------------------------
# shared workloads


@pytest.fixture(scope="module")
def exactness_sweep():
    """200 random (r, m) pairs x 25 seeds; returns per-run stats and timing."""
    gen = np.random.default_rng(20260810)
    pairs = []
    while len(pairs) < 200:
        r = int(gen.integers(1, 257))
        c = int(gen.integers(1, 4096 // r + 1))
        pairs.append((r, c * r))
    started = time.perf_counter()
    runs = []
    for r, m in pairs:
        f = PeriodicFunction.modular(r, m)
        expected = brute_force_period(f, m)
        for seed in range(25):
            period, trace = eqpa(f, np.random.default_rng(seed))
            runs.append((r, m, period == expected, trace.fourier_calls, trace.sweeps))
    elapsed = time.perf_counter() - started
    return {"runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def protocol_sweep():
    """Exhaustive protocol/oracle equivalence sweep, auditing every run."""
    stats = {
        "lcm_ok": 0, "gcd_ok": 0, "psu_ok": 0, "psi_ok": 0,
        "total": 0, "repetitions": 0, "audits_passed": 0, "audits_total": 0,
    }

    def audit(result, basis):
        rep_ = leakage_audit(result, basis)
        stats["audits_total"] += 1
        stats["audits_passed"] += rep_.passed
        return rep_.passed

    for n in (2, 3):
        for secrets in itertools.product(range(1, 17), repeat=n):
            seed = hash(secrets) & 0xFFFF
            res = lcm_protocol(list(secrets), 5, seed=seed)
            stats["total"] += 1
            stats["repetitions"] += res.repetitions
            stats["lcm_ok"] += res.output == math.lcm(*secrets)
            assert audit(res, list(secrets))

            res = gcd_protocol(list(secrets), 5, seed=seed)
            stats["total"] += 1
            stats["repetitions"] += res.repetitions
            stats["gcd_ok"] += res.output == math.gcd(*secrets)
            assert audit(res, list(secrets))

    subsets = [frozenset(u for u in range(4) if bits >> u & 1) for bits in range(16)]
    for s1, s2 in itertools.product(subsets, repeat=2):
        seed = hash((s1, s2)) & 0xFFFF
        basis = [encode_set(s1), encode_set(s2)]

        res = psu_protocol([s1, s2], 4, seed=seed)
        stats["total"] += 1
        stats["repetitions"] += res.repetitions
        stats["psu_ok"] += res.output == (s1 | s2)
        assert audit(res, basis)

        res = psi_protocol([s1, s2], 4, seed=seed)
        stats["total"] += 1
        stats["repetitions"] += res.repetitions
        stats["psi_ok"] += res.output == (s1 & s2)
        assert audit(res, basis)

    return stats


def _uniform_instance(rng, force_fraction):
    """Random preparation over Z_d with a good set of exactly d*fraction."""
    denom = int(1 / force_fraction)
    d = int(rng.integers(1, 64 // denom + 1)) * denom
    steps = [PrepStep("x")]
    if rng.integers(2):
        k = int(rng.integers(2, 7))
        steps.append(PhaseFlipStep(GoodPredicate(("x",), lambda x, k=k: x % k == 1), 1j))
    program = ReversibleProgram(RegisterLayout.of(("x", d)), tuple(steps))
    chosen = np.sort(rng.choice(d, size=d // denom, replace=False))
    good = GoodPredicate(("x",), lambda x, c=chosen: np.isin(x, c))
    return program, good


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_eqpa_exactness(exactness_sweep):
    runs = exactness_sweep["runs"]
    assert len(runs) == 5000
    assert all(ok for _, _, ok, _, _ in runs)
    assert exactness_sweep["elapsed"] < 60.0, f"took {exactness_sweep['elapsed']:.1f}s"
    report(1, f"5000/5000 exact periods in {exactness_sweep['elapsed']:.1f}s")


def test_criterion_2_index_support_law():
    checked = 0
    for r in range(1, 33):
        for m in range(r, 1025, r):
            state = fourier_sampling_program(PeriodicFunction.modular(r, m)).run()
            marginal = {}
            for values, amp in state.entries():
                marginal[values[0]] = marginal.get(values[0], 0.0) + abs(amp) ** 2
            step = m // r
            for k, mass in marginal.items():
                assert k % step == 0, (r, m, k)
                assert abs(mass - 1 / r) <= TOL, (r, m, k, mass)
            assert len(marginal) == r, (r, m)
            checked += 1
    report(2, f"index marginal exactly 1/r on multiples of m/r for {checked} (r, m) pairs")


def test_criterion_3_critical_half_mass():
    checked = 0
    for r in range(2, 33):
        divisors = [d for d in range(1, r) if r % d == 0]
        for c in (1, 3, 8):
            m = c * r
            f = PeriodicFunction.modular(r, m)
            for d in divisors:
                rho = r // d
                j = -1 if rho % 2 == 0 else ceil_log2(d * m // r)
                mass = good_mass(marked_program(f, d, j).run(), goodness(d, m, j))
                assert abs(mass - 0.5) <= TOL, (r, m, d, j, mass)
                checked += 1
    report(3, f"good mass 0.5 +/- 1e-9 at the critical j for {checked} (r, m, d) cases")


def test_criterion_4_boost_exactness():
    rng = np.random.default_rng(4)
    for i in range(50):
        program, good = _uniform_instance(rng, 0.5)
        res = boost_from_half(program, good)
        assert res.at_expected_mass, i
        assert abs(res.mass_after - 1.0) <= TOL, (i, res.mass_after)
    for i in range(50):
        program, good = _uniform_instance(rng, 0.25)
        prepared = program.run()
        before = good_mass(prepared, good)
        after = good_mass(amplification_operator(program, good, -1, -1, prepared), good)
        assert abs(before - 0.25) <= MASS_TOL, i
        assert abs(after - 1.0) <= TOL, (i, after)
    report(4, "100 random instances boosted from exactly 1/2 and 1/4 to mass 1 +/- 1e-9")


def test_criterion_5_grover_iteration_law():
    rng = np.random.default_rng(5)
    instances = 0
    while instances < 50:
        d = int(rng.integers(2, 65))
        size = int(rng.integers(1, d))
        program = ReversibleProgram(RegisterLayout.of(("x", d)), (PrepStep("x"),))
        chosen = np.sort(rng.choice(d, size=size, replace=False))
        good = GoodPredicate(("x",), lambda x, c=chosen: np.isin(x, c))
        state = program.run()
        a = good_mass(state, good)
        theta = math.asin(math.sqrt(a))
        for j in range(1, 9):
            state = amplification_operator(program, good, -1, -1, state)
            expected = math.sin((2 * j + 1) * theta) ** 2
            assert abs(good_mass(state, good) - expected) <= TOL, (d, size, j)
        instances += 1
    report(5, "mass after j Grover iterations matches sin^2((2j+1)theta) for 50 instances, j <= 8")


def test_criterion_6_fourier_call_bound(exactness_sweep):
    for r, m, _, calls, sweeps in exactness_sweep["runs"]:
        bound = 4 * (m.bit_length() - 1 + 2) * (ceil_log2(r) + 1)
        assert calls <= bound, (r, m, calls, bound)
        assert sweeps <= ceil_log2(r) + 1, (r, m, sweeps)
    report(6, "transform-call and sweep bounds hold on all 5000 exactness runs")


def test_criterion_7_single_attempt_factoring_rate():
    for N, k in ((15, 2), (21, 2), (33, 2)):
        hits = sum(
            _shor_split_attempt(N, np.random.default_rng(seed)) is not None
            for seed in range(500)
        )
        rate = hits / 500
        bound = 1 - 1 / 2 ** (k - 1) - 0.05
        assert rate >= bound, (N, rate, bound)
    report(7, "single-attempt split rate >= 1 - 1/2^(k-1) - 0.05 on N in {15, 21, 33}, 500 trials each")


def test_criterion_8_protocol_oracle_equivalence(protocol_sweep):
    s = protocol_sweep
    assert s["lcm_ok"] == 256 + 4096
    assert s["gcd_ok"] == 256 + 4096
    assert s["psu_ok"] == 256
    assert s["psi_ok"] == 256
    assert s["repetitions"] == 0
    report(8, f"{s['total']} protocol runs all match classical oracles, zero repetitions")


def test_criterion_9_leakage_audit(protocol_sweep):
    assert protocol_sweep["audits_passed"] == protocol_sweep["audits_total"]
    # and the audit actually rejects a planted raw secret
    res = lcm_protocol([4, 6], 5, seed=0)
    res.transcript.log(KIND_INT, 1, 0, {"role": "debug", "value": 4})
    assert not leakage_audit(res, [4, 6]).passed
    report(9, f"audit passed on all {protocol_sweep['audits_total']} honest runs and failed on injection")


def test_criterion_10_cli_byte_determinism(capsys):
    commands = [
        ("eqpa", "--r", "6", "--m", "12", "--seed", "7"),
        ("lcm", "--inputs", "4,6,10", "--bits", "5", "--seed", "1"),
        ("psu", "--sets", "1,2;2,3", "--universe", "4", "--seed", "3"),
        ("qpa-compare", "--r", "6", "--m", "12", "--trials", "100", "--seed", "2"),
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first
        json.loads(first)  # well-formed single-line JSON
    report(10, "identical output bytes for identical seed/flags across consecutive runs")
