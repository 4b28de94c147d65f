"""Tests for the simulated multiparty protocols, transcripts, and the audit."""

import itertools
import json
import math

import numpy as np
import pytest

from qperiod.factorint import encode_set
from qperiod.mpqc import (
    KIND_HANDOFF,
    KIND_INT,
    ProtocolError,
    _mask_secret,
    _shares_from_masks,
    divisibility_vote,
    gcd_protocol,
    lcm_protocol,
    leakage_audit,
    psi_protocol,
    psu_protocol,
)
from qperiod.qstate import (
    ClassicalOracle,
    RegisterLayout,
    apply_oracle,
    controlled_subtract,
    uniform_prep,
    zero_state,
)


class TestLcmProtocol:
    def test_three_parties(self):
        res = lcm_protocol([4, 6, 10], 5, seed=1)
        assert res.output == 60 == math.lcm(4, 6, 10)
        assert res.accept and res.repetitions == 0

    def test_trivial_secrets(self):
        assert lcm_protocol([1, 1], 5, seed=0).output == 1

    def test_two_coprime(self):
        assert lcm_protocol([3, 5], 5, seed=2).output == 15

    def test_secret_range_validated(self):
        with pytest.raises(ProtocolError):
            lcm_protocol([0, 4], 5)
        with pytest.raises(ProtocolError):
            lcm_protocol([40, 4], 5)

    def test_needs_two_parties(self):
        with pytest.raises(ProtocolError):
            lcm_protocol([4], 5)

    def test_round_counter_is_parties_times_passes(self):
        for secrets in ([4, 6], [3, 5, 8], [7, 9, 10]):
            res = lcm_protocol(secrets, 5, seed=3)
            assert res.counters["rounds"] == len(secrets) * res.counters["oracle_passes"]

    def test_pass_count_within_fourier_bound(self):
        res = lcm_protocol([4, 6, 10], 5, seed=1)
        k = None
        for msg in res.transcript.messages:
            if msg.payload.get("role") == "modulus-broadcast":
                k = msg.payload["value"]
        r = res.output
        bound = 4 * (k.bit_length() - 1 + 2) * (max(r - 1, 0).bit_length() + 1)
        assert res.counters["oracle_passes"] <= 2 * bound + 1
        assert res.counters["fourier_calls"] <= bound

    def test_transcript_masking(self):
        res = lcm_protocol([4, 6], 6, seed=5)
        masked = [m for m in res.transcript.messages if m.payload.get("role") == "masked-multiple"]
        assert len(masked) == 1  # party 1 -> party 0; the coordinator keeps its own
        y = masked[0].payload["value"]
        assert y % 6 == 0 and y > 6
        assert 1 << 6 <= y < 1 << 7  # dyadic window is secret-independent

    def test_modulus_is_multiple_of_joint_period(self):
        res = lcm_protocol([6, 10, 15], 5, seed=8)
        k = next(m.payload["value"] for m in res.transcript.messages
                 if m.payload.get("role") == "modulus-broadcast")
        assert k % math.lcm(6, 10, 15) == 0

    def test_deterministic_per_seed(self):
        a = lcm_protocol([4, 6, 10], 5, seed=7)
        b = lcm_protocol([4, 6, 10], 5, seed=7)
        assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
        c = lcm_protocol([4, 6, 10], 5, seed=8)
        assert a.transcript.to_jsonl() != c.transcript.to_jsonl()

    def test_handoff_chain_walks_the_ring(self):
        res = lcm_protocol([3, 4, 5], 5, seed=0)
        assert res.transcript.verify_handoff_chain()
        handoffs = [m for m in res.transcript.messages if m.kind == KIND_HANDOFF]
        n = 3
        assert len(handoffs) % n == 0
        assert res.counters["rounds"] == len(handoffs)

    def test_secrets_never_on_the_wire(self):
        secrets = [12, 9]
        res = lcm_protocol(secrets, 5, seed=4)
        for msg in res.transcript.messages:
            value = msg.payload.get("value")
            if msg.payload.get("role") != "result-broadcast":
                assert value not in secrets


class TestDivisibilityVote:
    def test_all_divisible(self):
        assert divisibility_vote([6, 9, 12], 3, np.random.default_rng(0)) is True

    def test_one_not_divisible(self):
        assert divisibility_vote([6, 8], 3, np.random.default_rng(0)) is False

    def test_one_divides_everything(self):
        assert divisibility_vote([5, 7, 11], 1, np.random.default_rng(0)) is True

    def test_candidate_validated(self):
        with pytest.raises(ProtocolError):
            divisibility_vote([4, 6], 0)

    @pytest.mark.parametrize("secrets,candidate", [([4, 6, 9], 2), ([8, 12], 4), ([5, 10, 15, 20], 5)])
    def test_matches_direct_check(self, secrets, candidate):
        expected = all(s % candidate == 0 for s in secrets)
        for seed in range(5):
            assert divisibility_vote(secrets, candidate, np.random.default_rng(seed)) is expected

    def test_share_reconstruction(self):
        for vote in (0, 1):
            for masks in itertools.product(range(4), repeat=2):
                shares = _shares_from_masks(vote, list(masks), 4)
                assert sum(shares) % 4 == vote

    def test_each_share_position_equidistributed(self):
        # over all mask draws for a fixed vote, each share is uniform mod n+1
        modulus, vote = 4, 1
        counts = [dict() for _ in range(3)]
        for masks in itertools.product(range(modulus), repeat=2):
            shares = _shares_from_masks(vote, list(masks), modulus)
            for pos, s in enumerate(shares):
                counts[pos][s] = counts[pos].get(s, 0) + 1
        expected = modulus ** 2 // modulus
        for pos in range(3):
            assert all(counts[pos].get(v, 0) == expected for v in range(modulus))


class TestPsuProtocol:
    def test_overlapping_pair(self):
        res = psu_protocol([{1, 2}, {2, 3}], 4, seed=0)
        assert res.output == frozenset({1, 2, 3})

    def test_empty_set_encodes_as_one(self):
        res = psu_protocol([set(), {0}], 4, seed=1)
        assert res.output == frozenset({0})

    def test_three_random_parties_match_union(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            sets = [set(rng.choice(6, size=2, replace=False).tolist()) for _ in range(3)]
            res = psu_protocol(sets, 6, seed=int(rng.integers(1000)))
            assert res.output == frozenset(set().union(*sets))

    def test_universe_validated(self):
        with pytest.raises(ProtocolError):
            psu_protocol([{4}, {0}], 4, seed=0)


class TestGcdProtocol:
    def test_basic(self):
        assert gcd_protocol([12, 18], 5, seed=0).output == 6

    def test_coprime(self):
        assert gcd_protocol([7, 11], 5, seed=1).output == 1

    def test_identical_inputs(self):
        assert gcd_protocol([8, 8, 8], 5, seed=2).output == 8

    def test_with_ones(self):
        assert gcd_protocol([1, 12], 5, seed=3).output == 1

    def test_prime_power_exponents(self):
        assert gcd_protocol([8, 12], 5, seed=4).output == 4


class TestPsiProtocol:
    def test_overlapping_pair(self):
        res = psi_protocol([{1, 2}, {2, 3}], 4, seed=0)
        assert res.output == frozenset({2})

    def test_disjoint_sets(self):
        res = psi_protocol([{0, 1}, {2, 3}], 4, seed=1)
        assert res.output == frozenset()

    def test_three_random_parties_match_intersection(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            sets = [set(rng.choice(6, size=3, replace=False).tolist()) for _ in range(3)]
            res = psi_protocol(sets, 6, seed=int(rng.integers(1000)))
            assert res.output == frozenset(sets[0] & sets[1] & sets[2])


class TestTranscriptSerialization:
    def test_jsonl_shape_and_key_order(self):
        res = lcm_protocol([4, 6], 5, seed=0)
        lines = res.transcript.to_jsonl().splitlines()
        assert len(lines) == len(res.transcript.messages)
        first = json.loads(lines[0])
        assert list(first) == ["round", "from", "to", "kind", "payload", "counters"]
        assert list(first["counters"]) == ["rounds", "oracle_passes", "fourier_calls"]

    def test_rounds_non_decreasing(self):
        res = gcd_protocol([12, 18], 5, seed=0)
        rounds = [m.round for m in res.transcript.messages]
        assert rounds == sorted(rounds)

    def test_counters_at_emission_snapshot(self):
        res = lcm_protocol([4, 6], 5, seed=0)
        last = res.transcript.messages[-1]
        assert last.counters["rounds"] == res.counters["rounds"]


class TestLeakageAudit:
    def test_honest_lcm_passes(self):
        res = lcm_protocol([4, 6], 5, seed=0)
        report = leakage_audit(res, [4, 6])
        assert report.passed and report.messages_checked > 0

    def test_injected_raw_secret_fails(self):
        res = lcm_protocol([4, 6], 5, seed=0)
        res.transcript.log(KIND_INT, 1, 0, {"role": "debug", "value": 4})
        report = leakage_audit(res, [4, 6])
        assert not report.passed
        assert any("raw secret" in v for v in report.violations)

    def test_injected_unmasked_multiple_fails(self):
        res = lcm_protocol([4, 6], 5, seed=0)
        res.transcript.log(KIND_INT, 1, 0, {"role": "masked-multiple", "value": 6, "layer": 0})
        assert not leakage_audit(res, [4, 6]).passed

    def test_honest_psi_passes(self):
        sets = [{1, 2}, {2, 3}]
        res = psi_protocol(sets, 4, seed=2)
        report = leakage_audit(res, [encode_set(s) for s in sets])
        assert report.passed, report.violations

    def test_honest_gcd_passes(self):
        res = gcd_protocol([12, 18], 5, seed=2)
        assert leakage_audit(res, [12, 18]).passed

    def test_encodings_never_unmasked_in_psu(self):
        sets = [{0, 1}, {1, 3}]
        encodings = [encode_set(s) for s in sets]
        res = psu_protocol(sets, 4, seed=5)
        report = leakage_audit(res, encodings)
        assert report.passed
        for msg in res.transcript.messages:
            if msg.kind == KIND_HANDOFF or msg.payload.get("role") == "result-broadcast":
                continue
            assert msg.payload.get("value") not in encodings


class TestExhaustiveSmall:
    def test_lcm_pairs_subrange(self):
        for a, b in itertools.product(range(1, 7), repeat=2):
            assert lcm_protocol([a, b], 4, seed=a * 16 + b).output == math.lcm(a, b)

    def test_gcd_pairs_subrange(self):
        for a, b in itertools.product(range(1, 7), repeat=2):
            assert gcd_protocol([a, b], 4, seed=a * 16 + b).output == math.gcd(a, b)


class TestRejectPath:
    def test_nonzero_copy_check_rejects(self, monkeypatch):
        import qperiod.mpqc as mpqc_mod

        monkeypatch.setattr(mpqc_mod, "_simulate_prep_pass", lambda *a, **k: 1)
        res = lcm_protocol([4, 6], 5, seed=0)
        assert not res.accept
        assert res.output is None

    def test_honest_runs_always_accept(self):
        for seed in range(25):
            res = lcm_protocol([4, 6, 9], 5, seed=seed)
            assert res.accept
            assert res.output == 36  # single invocation succeeds on every seed
            assert res.repetitions == 0


@pytest.mark.parametrize("secrets, m_bits", [([2, 3], 2), ([3, 4], 3), ([2, 3, 4], 3), ([4, 6], 5), ([5, 6, 7], 4)])
def test_literal_prep_pass_leaves_copy_register_at_zero(secrets, m_bits):
    """Test oracle for the logged prep pass: run it on the simulator.

    P_0 copies h into t, each party accumulates x mod r_i into e_i from t,
    and the copy is uncomputed; t must then be |0> on every branch.
    """
    rng = np.random.default_rng(sum(secrets))
    k = math.prod(_mask_secret(x, m_bits, rng) for x in secrets)
    layout = RegisterLayout.of(("h", k), ("t", k), *[(f"e{i}", 1 << m_bits) for i in range(len(secrets))])
    state = uniform_prep(zero_state(layout), "h")
    state = controlled_subtract(state, "h", "t", inverse=True)  # |j>|0> -> |j>|j>
    for i, x in enumerate(secrets):
        state = apply_oracle(state, ClassicalOracle(("t",), f"e{i}", lambda v, r=x: v % r))
    state = controlled_subtract(state, "h", "t")

    t_marginal: dict[int, float] = {}
    for t_val, p in zip(state.values_column("t").tolist(), state.probabilities()):
        t_marginal[t_val] = t_marginal.get(t_val, 0.0) + p
    assert list(t_marginal) == [0]
    assert t_marginal[0] == pytest.approx(1.0, abs=1e-9)
    h = state.values_column("h")
    assert sorted(h.tolist()) == list(range(k))
    for i, x in enumerate(secrets):
        assert np.array_equal(state.values_column(f"e{i}"), h % x)


@pytest.mark.parametrize("m_bits, small_modulus", [(5, True), (7, False)])
def test_prep_pass_seam_called_once_for_every_modulus(monkeypatch, m_bits, small_modulus):
    import qperiod.mpqc as mpqc_mod

    calls = []
    real = mpqc_mod._simulate_prep_pass

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpqc_mod, "_simulate_prep_pass", counting)
    res = lcm_protocol([3, 4, 5], m_bits, seed=0)
    k = next(m.payload["value"] for m in res.transcript.messages if m.payload.get("role") == "modulus-broadcast")
    assert (k <= 1 << 18) == small_modulus
    assert len(calls) == 1
    assert res.accept and res.output == 60
    assert res.counters["rounds"] == 3 * res.counters["oracle_passes"]
