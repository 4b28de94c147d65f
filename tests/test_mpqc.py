"""Tests for the simulated multiparty protocols, transcripts, and the audit."""

import dataclasses
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperiod.factorint import encode_set
from qperiod.mpqc import (
    _EQUALITY_EXEMPT,
    _joint_residue_function,
    BROADCAST,
    KIND_HANDOFF,
    KIND_INT,
    KIND_SHARE,
    ROLE_MASKED_MULTIPLE,
    ROLE_MODULUS,
    ROLE_RESULT,
    ROLE_VOTE_CANDIDATE,
    ROLE_VOTE_RESULT,
    ROLE_VOTE_SHARE,
    ROLE_VOTE_TALLY,
    AuditReport,
    ProtocolError,
    Transcript,
    TranscriptMessage,
    _Vote,
    _mask_secret,
    _shares_from_masks,
    additive_shares,
    divisibility_vote,
    gcd_protocol,
    lcm_protocol,
    leakage_audit,
    psi_protocol,
    psu_protocol,
)
from qperiod.periodfind import eqpa
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

    def test_eight_parties_of_32_bit_primes(self):
        # k = prod(y_i) ~ 2^264: block-engine work, with no period scanned
        primes = [4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161, 4294967143, 4294967111]
        start = time.perf_counter()
        res = lcm_protocol(primes, 32, seed=1)
        assert time.perf_counter() - start < 2.0
        assert res.accept and res.output == math.prod(primes)
        assert leakage_audit(res, primes).passed

    def test_masking_past_int64_refused_before_the_draw(self):
        rng = np.random.default_rng(5)
        assert _mask_secret(1, 62, rng) >> 62 == 1  # q <= 2^63 - 1, the widest int64 draw
        state = rng.bit_generator.state
        with pytest.raises(ProtocolError, match="masking range at 63 bits passes int64"):
            _mask_secret(1, 63, rng)  # q would reach 2^64 - 1
        assert rng.bit_generator.state == state

    def test_negative_bits_refused(self):
        with pytest.raises(ProtocolError, match="bits must be >= 1, got -1"):
            lcm_protocol([3, 5], -1)

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


class TestDeclaredJointFunction:
    """The joint function declares its residue moduli, so the block engine
    takes the period lcm(x_i) from them instead of scanning f."""

    def test_same_run_as_the_scanned_evaluator_and_no_evaluation(self):
        rng = np.random.default_rng(20)
        parties = []
        while len(parties) < 200:
            n = int(rng.integers(2, 6))
            secrets = [int(rng.integers(1, 1 << int(rng.integers(1, 9)))) for _ in range(n)]
            r = math.lcm(*secrets)
            if r > 1 << 16:  # the scanned copy reads one period per run
                continue
            parties.append(n)
            f = _joint_residue_function(secrets, r * int(rng.integers(1, 1 << 12)))
            scanned = dataclasses.replace(f, residues=None)
            calls = []
            counted = dataclasses.replace(f, evaluator=lambda x: calls.append(x) or f.evaluator(x))
            seed = int(rng.integers(1 << 31))
            runs = [(g, np.random.default_rng(seed)) for g in (f, scanned, counted)]
            (p1, t1), (p2, t2), (p3, t3) = (eqpa(g, g_rng) for g, g_rng in runs)
            assert p1 == p2 == p3 == r
            assert t1.records == t2.records == t3.records
            assert len({g_rng.random() for _, g_rng in runs}) == 1
            assert calls == []
        assert set(parties) == {2, 3, 4, 5}

    def test_lcm_of_12_bit_primes_is_fast(self):
        start = time.perf_counter()
        result = lcm_protocol([4093, 4091], 12)
        elapsed = time.perf_counter() - start
        assert result.output == 16744463 and result.accept
        assert leakage_audit(result, [4093, 4091]).passed
        assert elapsed < 0.2


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

    def test_single_mask_draws_match_one_sized_draw(self):
        # additive_shares draws its masks one at a time: the values and the
        # generator's end state are those of one draw of size count - 1
        for seed in range(50):
            for count in range(1, 7):
                modulus = count + 1
                sized, single = np.random.default_rng(seed), np.random.default_rng(seed)
                masks = sized.integers(0, modulus, size=count - 1).tolist()
                assert additive_shares(1, count, modulus, single)[:-1] == masks
                assert sized.bit_generator.state == single.bit_generator.state

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

    def test_mersenne_prime_decodes_from_the_sieve(self):
        start = time.perf_counter()
        res = gcd_protocol([524287, 524287], 19)
        assert time.perf_counter() - start < 0.2
        assert res.accept and res.output == 524287

    def test_41_bit_prime_passes_its_audit(self):
        # far past the prime sieve's cap: the union is published as primes
        start = time.perf_counter()
        res = gcd_protocol([2199023255531, 2199023255531], 41)
        report = leakage_audit(res, [2199023255531, 2199023255531])
        assert time.perf_counter() - start < 1.0
        assert res.output == 2199023255531
        assert report.passed, report.violations

    def test_union_needs_no_prime_index(self, monkeypatch):
        import qperiod.factorint as factorint_mod

        def refuse(*args):
            raise AssertionError("GCD maps a prime to or from its index")

        monkeypatch.setattr(factorint_mod, "nth_prime", refuse)
        monkeypatch.setattr(factorint_mod, "prime_index", refuse)
        assert gcd_protocol([12, 18], 5).output == 6


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


@pytest.mark.parametrize("protocol", [psu_protocol, psi_protocol], ids=["psu", "psi"])
def test_negative_universe_rejected(protocol):
    with pytest.raises(ProtocolError, match=r"^universe size must be >= 0, got -3$"):
        protocol([set(), set()], -3, seed=0)


@pytest.mark.parametrize("protocol", [psu_protocol, psi_protocol], ids=["psu", "psi"])
def test_empty_universe_with_empty_sets_stays_valid(protocol):
    assert protocol([set(), set()], 0, seed=0).output == frozenset()


@pytest.mark.parametrize("run", [
    lambda: gcd_protocol([12, 18], 5, seed=0),
    lambda: gcd_protocol([245, 175, 35], 8, seed=4),
    lambda: psi_protocol([{1, 2}, {2, 3}], 4, seed=0),
    lambda: psi_protocol([{0, 1, 2}, {1, 2, 3}, {2, 1, 5}], 6, seed=7),
], ids=["gcd-12-18", "gcd-245-175-35", "psi-pair", "psi-triple"])
def test_votes_are_logged_under_the_gcd_layer(run):
    res = run()
    gcd_layers = {i for i, (name, _) in enumerate(res.layer_inputs) if name == "gcd"}
    votes = [m for m in res.transcript.messages if str(m.payload.get("role", "")).startswith("vote-")]
    assert votes and gcd_layers
    assert {m.payload["layer"] for m in votes} <= gcd_layers


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


# ---------------------------------------------------------------------------
# reference: the per-hop transcript that logged every register handoff as a
# message, with the views and the audit that rescanned them


class ReferenceTranscript:
    """The per-hop ``Transcript`` before ring passes became records, verbatim.

    ``log_pass`` is the old ``_Context.log_pass``, whose ``pass_no`` always
    equalled ``oracle_passes``; ``counters`` is the old
    ``ProtocolResult.counters``.  ``log_ring`` replays the old per-iteration
    logging of an LCM run instead of its closed form, and ``log_vote`` the
    old per-message logging of a vote instead of its record.
    """

    def __init__(self) -> None:
        self.messages: list[TranscriptMessage] = []
        self.rounds = 0
        self.oracle_passes = 0
        self.fourier_calls = 0

    def _snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "oracle_passes": self.oracle_passes,
            "fourier_calls": self.fourier_calls,
        }

    @property
    def counters(self) -> dict:
        return self._snapshot()

    def log(self, kind: str, sender, receiver, payload: dict) -> None:
        self.messages.append(
            TranscriptMessage(self.rounds, sender, receiver, kind, payload, self._snapshot())
        )

    def log_handoff(self, sender: int, receiver: int, registers: list[str], pass_no: int, direction: str) -> None:
        self.rounds += 1
        self.log(
            KIND_HANDOFF,
            sender,
            receiver,
            {"registers": registers, "pass": pass_no, "direction": direction},
        )

    def log_pass(self, n: int, direction: str) -> None:
        self.oracle_passes += 1
        hops = [(i, (i + 1) % n) for i in range(n)]
        if direction == "inverse":
            hops = [(b, a) for a, b in reversed(hops)]
        for a, b in hops:
            self.log_handoff(a, b, ["t"], self.oracle_passes, direction)

    def log_ring(self, n: int, passes: int) -> None:
        """The prep pass, then per EQPA iteration A (after the first), A^-1, A and three transforms."""
        self.log_pass(n, "forward")
        for iteration in range(passes // 3):
            if iteration:
                self.log_pass(n, "forward")
            self.log_pass(n, "inverse")
            self.log_pass(n, "forward")
            self.fourier_calls += 3

    def log_vote(self, layer: int, candidate: int, shares: list[list[int]], tallies: list[int], result: bool) -> None:
        """Replays the old per-message logging of a divisibility vote."""

        def log_value(sender, receiver, role, value, kind=KIND_INT):
            self.log(kind, sender, receiver, {"role": role, "value": value, "layer": layer})

        log_value(0, BROADCAST, ROLE_VOTE_CANDIDATE, candidate)
        for i, row in enumerate(shares):
            for j, share in enumerate(row):
                if j != i:
                    log_value(i, j, ROLE_VOTE_SHARE, share, kind=KIND_SHARE)
        for j, tally in enumerate(tallies):
            log_value(j, BROADCAST, ROLE_VOTE_TALLY, tally, kind=KIND_SHARE)
        log_value(0, BROADCAST, ROLE_VOTE_RESULT, result)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(m.to_json_dict()) + "\n" for m in self.messages)

    def verify_handoff_chain(self) -> bool:
        """Each handoff pass must be a connected ring walk."""
        last_by_pass: dict[int, int] = {}
        for m in self.messages:
            if m.kind != KIND_HANDOFF:
                continue
            p = m.payload["pass"]
            if p in last_by_pass and last_by_pass[p] != m.sender:
                return False
            last_by_pass[p] = m.receiver
        return True


def reference_leakage_audit(result, secrets) -> AuditReport:
    """``leakage_audit`` over the expanded message list, verbatim."""
    secrets = [int(s) for s in secrets]
    layer_inputs = {i: vals for i, (_, vals) in enumerate(result.layer_inputs)}
    sensitive = set(secrets)
    for vals in layer_inputs.values():
        sensitive.update(vals)

    violations: list[str] = []
    checked = 0
    for idx, msg in enumerate(result.transcript.messages):
        if msg.kind == KIND_HANDOFF:
            continue
        checked += 1
        role = msg.payload.get("role")
        value = msg.payload.get("value")
        layer = msg.payload.get("layer")
        inputs = layer_inputs.get(layer, tuple(secrets))
        n = len(inputs)

        if role == ROLE_MASKED_MULTIPLE:
            if not isinstance(msg.sender, int) or msg.sender >= n:
                violations.append(f"message {idx}: masked multiple from unknown sender")
            else:
                x = inputs[msg.sender]
                if value % x != 0 or value <= x:
                    violations.append(f"message {idx}: value {value} is not a masked multiple of the sender's input")
        elif role == ROLE_MODULUS:
            if any(value % x != 0 for x in inputs):
                violations.append(f"message {idx}: modulus {value} not divisible by every input")
        elif role == ROLE_RESULT:
            pass  # protocol outputs are public by definition
        elif role == ROLE_VOTE_CANDIDATE:
            if not isinstance(value, int) or value < 2:
                violations.append(f"message {idx}: malformed vote candidate {value}")
        elif role in (ROLE_VOTE_SHARE, ROLE_VOTE_TALLY):
            if not isinstance(value, int) or not 0 <= value <= n:
                violations.append(f"message {idx}: share {value} outside the masking group")
        elif role == ROLE_VOTE_RESULT:
            if not isinstance(value, bool):
                violations.append(f"message {idx}: vote result must be boolean")
        else:
            violations.append(f"message {idx}: unknown message role {role!r}")

        if role not in _EQUALITY_EXEMPT and isinstance(value, int):
            # Well-formed masked values sit above their own layer's inputs by
            # construction, so scan against those; a message without a valid
            # layer (e.g. injected) is held against every known secret.
            basis = layer_inputs.get(layer)
            scan = set(basis) if basis is not None else sensitive
            if value in scan:
                violations.append(f"message {idx}: raw secret value {value} on the wire")

    if not result.transcript.verify_handoff_chain():
        violations.append("register handoffs do not form connected ring passes")

    return AuditReport(passed=not violations, violations=tuple(violations), messages_checked=checked)


def _protocol_case(kind, n_parties, seed):
    """Random inputs for one protocol run, and the secrets its audit checks."""
    rng = np.random.default_rng(1000 * n_parties + seed)
    if kind in ("lcm", "gcd"):
        bits = int(rng.integers(2, 7))
        inputs = [int(v) for v in rng.integers(1, 1 << bits, size=n_parties)]
        return (inputs, bits), inputs
    universe = 3 if n_parties == 5 else 4  # keeps the joint modulus below the simulator's bound
    sets = [set(rng.choice(universe, size=int(rng.integers(0, universe + 1)), replace=False).tolist())
            for _ in range(n_parties)]
    return (sets, universe), [encode_set(s) for s in sets]


_PROTOCOLS = {"lcm": lcm_protocol, "gcd": gcd_protocol, "psu": psu_protocol, "psi": psi_protocol}

# Messages appended after a run of ``passes`` ring passes: a raw secret (its
# violation names the index after every expanded handoff), a handoff that
# breaks pass 1's ring, one that opens a pass of its own, one that breaks the
# last pass's ring (which ends at party 0), and one on the pass after it.
_INJECTIONS = [
    lambda secrets, passes: (KIND_INT, 1, 0, {"role": "debug", "value": secrets[0]}),
    lambda secrets, passes: (KIND_HANDOFF, 1, 0, {"registers": ["t"], "pass": 1, "direction": "forward"}),
    lambda secrets, passes: (KIND_HANDOFF, 0, 1, {"registers": ["t"], "pass": 10**6, "direction": "forward"}),
    lambda secrets, passes: (KIND_HANDOFF, 1, 0, {"registers": ["t"], "pass": passes, "direction": "forward"}),
    lambda secrets, passes: (KIND_HANDOFF, 1, 0, {"registers": ["t"], "pass": passes + 1, "direction": "forward"}),
]


@pytest.mark.parametrize("n_parties", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(_PROTOCOLS))
def test_pass_records_match_per_hop_reference(monkeypatch, kind, n_parties):
    import qperiod.mpqc as mpqc_mod

    for seed in range(12):
        args, secrets = _protocol_case(kind, n_parties, seed)
        res = _PROTOCOLS[kind](*args, seed=seed)
        with monkeypatch.context() as mp:
            mp.setattr(mpqc_mod, "Transcript", ReferenceTranscript)
            ref = _PROTOCOLS[kind](*args, seed=seed)
        assert isinstance(ref.transcript, ReferenceTranscript)

        assert res.output == ref.output
        assert res.transcript.to_jsonl() == ref.transcript.to_jsonl()
        assert res.transcript.messages == tuple(ref.transcript.messages)
        assert res.party_views == ref.party_views
        assert res.counters == ref.counters
        # every transform (A, A^-1, A per iteration) is one ring pass
        assert res.counters["oracle_passes"] == res.counters["fourier_calls"]
        assert leakage_audit(res, secrets) == reference_leakage_audit(ref, secrets)
        assert leakage_audit(res, secrets).passed

        injected = _INJECTIONS[seed % len(_INJECTIONS)](secrets, res.counters["oracle_passes"])
        res.transcript.log(*injected)
        ref.transcript.log(*injected)
        assert res.transcript.to_jsonl() == ref.transcript.to_jsonl()
        assert res.transcript.verify_handoff_chain() == ref.transcript.verify_handoff_chain()
        assert leakage_audit(res, secrets) == reference_leakage_audit(ref, secrets)


def test_injected_ring_breaking_handoff_is_caught():
    res = lcm_protocol([4, 6], 5, seed=0)
    honest = leakage_audit(res, [4, 6])
    assert honest.passed and res.transcript.verify_handoff_chain()

    # pass 1 walks 0 -> 1 -> 0, so a further pass-1 hop must leave party 0
    res.transcript.log(KIND_HANDOFF, 0, 1, {"registers": ["t"], "pass": 1, "direction": "forward"})
    assert res.transcript.verify_handoff_chain()
    res.transcript.log(KIND_HANDOFF, 0, 1, {"registers": ["t"], "pass": 1, "direction": "forward"})
    assert not res.transcript.verify_handoff_chain()

    report = leakage_audit(res, [4, 6])
    assert report.violations == ("register handoffs do not form connected ring passes",)
    assert report.messages_checked == honest.messages_checked
    assert res.transcript.messages[-1].kind == KIND_HANDOFF


# A well-formed message of each checked field, appended to lcm_protocol([4, 6], 5):
# a pass-1 hop that leaves party 0, and 48, a masked multiple of party 1's 6 and
# a multiple of both inputs
_WELL_FORMED = {
    "pass": (KIND_HANDOFF, 0, 1, {"registers": ["t"], "pass": 1, "direction": "forward"}),
    ROLE_MASKED_MULTIPLE: (KIND_INT, 1, 0, {"role": ROLE_MASKED_MULTIPLE, "value": 48, "layer": 0}),
    ROLE_MODULUS: (KIND_INT, 0, BROADCAST, {"role": ROLE_MODULUS, "value": 48, "layer": 0}),
}
_MISSING = object()


@pytest.mark.parametrize("value", [_MISSING, None, "48", 48.0, True], ids=["missing", "None", "str", "float", "bool"])
@pytest.mark.parametrize("field", sorted(_WELL_FORMED))
def test_non_int_field_is_a_violation_not_an_exception(field, value):
    kind, sender, receiver, payload = _WELL_FORMED[field]
    key = "pass" if kind == KIND_HANDOFF else "value"
    for v, well_formed in ((payload[key], True), (value, False)):
        res = lcm_protocol([4, 6], 5, seed=0)
        res.transcript.log(kind, sender, receiver, {k: x for k, x in {**payload, key: v}.items() if x is not _MISSING})
        report = leakage_audit(res, [4, 6])
        assert report.passed == well_formed
    if kind == KIND_HANDOFF:
        assert not res.transcript.verify_handoff_chain()
        assert report.violations == ("register handoffs do not form connected ring passes",)
    else:
        (violation,) = report.violations
        assert violation.startswith(f"message {len(res.transcript.messages) - 1}: ")


@pytest.mark.parametrize("layer", [[0], 0.0, True, "0"], ids=["list", "float", "bool", "str"])
def test_malformed_layer_is_a_violation_not_an_exception(layer):
    # 48 is a masked multiple of party 1's 6 in layer 0, so only the layer is at fault
    res = lcm_protocol([4, 6], 5, seed=0)
    res.transcript.log(KIND_INT, 1, 0, {"role": ROLE_MASKED_MULTIPLE, "value": 48, "layer": layer})
    report = leakage_audit(res, [4, 6])
    assert report.violations == (f"message {len(res.transcript.messages) - 1}: malformed layer {layer!r}",)

    # a vote record under a malformed layer is audited message by message
    res, secrets, at = _first_vote()
    res.transcript._log[at] = vote = res.transcript._log[at]._replace(layer=layer)
    start = sum(entry.size for entry in res.transcript._log[:at])
    report = leakage_audit(res, secrets)
    assert report.violations == tuple(f"message {start + i}: malformed layer {layer!r}" for i in range(vote.size))


@pytest.mark.parametrize("kind, payload, violation", [
    (KIND_INT, None, "malformed payload None"),
    (KIND_INT, ["x"], "malformed payload ['x']"),
    (KIND_HANDOFF, None, "malformed payload None"),
    (KIND_INT, {"role": ["x"], "value": 3, "layer": 0}, "unknown message role ['x']"),
], ids=["none", "list", "handoff", "unhashable-role"])
def test_malformed_payload_or_role_is_a_violation_not_an_exception(kind, payload, violation):
    res = gcd_protocol([12, 18], 5, seed=0)
    res.transcript._log.append(TranscriptMessage(0, 1, 0, kind, payload, {}))
    report = leakage_audit(res, [12, 18])
    want = (f"message {len(res.transcript.messages) - 1}: {violation}",)
    if kind == KIND_HANDOFF:
        want += ("register handoffs do not form connected ring passes",)
    assert report == AuditReport(False, want, report.messages_checked)


def test_an_unlayered_message_is_held_against_the_secrets_argument():
    # 35 is no layer's input, so only the secrets argument can flag it
    res = gcd_protocol([12, 18], 5, seed=0)
    assert all(35 not in inputs for _, inputs in res.layer_inputs)
    res.transcript.log(KIND_INT, 0, BROADCAST, {"role": ROLE_MODULUS, "value": 35})
    raw = f"message {len(res.transcript.messages) - 1}: raw secret value 35 on the wire"
    assert raw in leakage_audit(res, [12, 18, 35]).violations
    assert raw not in leakage_audit(res, []).violations


@pytest.mark.parametrize("sender", [-1, True])
def test_masked_multiple_from_a_non_party_sender_is_a_violation(sender):
    # 12 is a masked multiple of both inputs, so only the sender is at fault:
    # inputs[-1] and inputs[True] would both read party 1's 6
    for who, well_formed in ((0, True), (sender, False)):
        res = lcm_protocol([4, 6], 5, seed=0)
        res.transcript.log(KIND_INT, who, 0, {"role": ROLE_MASKED_MULTIPLE, "value": 12, "layer": 0})
        report = leakage_audit(res, [4, 6])
        assert report.passed == well_formed
    assert report.violations == (f"message {len(res.transcript.messages) - 1}: masked multiple from unknown sender",)


def test_lcm_run_logs_its_ring_passes_as_one_record():
    primes = [4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161, 4294967143, 4294967111]
    res = lcm_protocol(primes, 32, seed=1)
    assert res.output == math.prod(primes)
    # 7 masked multiples, the modulus, the run's 6 ring passes, the result
    assert len(res.transcript._log) == 10
    assert len(res.transcript.messages) == 9 + 8 * 6 == 57
    assert leakage_audit(res, primes).passed

    # the last pass ends at party 0: a hop on it from party 1 breaks its ring,
    # while a hop on the pass after it opens a new walk
    last = res.counters["oracle_passes"]
    res.transcript.log(KIND_HANDOFF, 1, 0, {"registers": ["t"], "pass": last + 1, "direction": "forward"})
    assert res.transcript.verify_handoff_chain()
    res.transcript.log(KIND_HANDOFF, 1, 0, {"registers": ["t"], "pass": last, "direction": "forward"})
    assert not res.transcript.verify_handoff_chain()


# ---------------------------------------------------------------------------
# vote records, bulk audits and the settled EQPA tail against the per-message log


def _sweep_case(kind, n_parties, seed):
    """Random inputs for one run of the byte-identity sweep, and its audit's secrets."""
    rng = np.random.default_rng(7919 * n_parties + seed)
    if kind in ("lcm", "gcd"):
        bits = int(rng.integers(2, 9))
        inputs = [int(v) for v in rng.integers(1, 1 << bits, size=n_parties)]
        return (inputs, bits), inputs
    universe = 3 if n_parties == 5 else 4
    sets = [set(rng.choice(universe, size=int(rng.integers(0, universe + 1)), replace=False).tolist())
            for _ in range(n_parties)]
    return (sets, universe), [encode_set(s) for s in sets]


# The digest of the sweep below as the per-message log (ReferenceTranscript
# and reference_leakage_audit) produces it, with EQPA sweeping only the
# windows that certify each divisor.
_SWEEP_SHA256 = "9cf24ce55456cdbbbb072d2f0a70cc7146beb818f94692414ebaa8dd91f12339"


def test_seeded_sweep_is_byte_identical_to_the_per_message_log():
    digest = hashlib.sha256()
    runs = 0
    for kind in sorted(_PROTOCOLS):
        for n_parties in range(2, 6):
            for seed in range(19):
                args, secrets = _sweep_case(kind, n_parties, seed)
                res = _PROTOCOLS[kind](*args, seed=seed)
                output = sorted(res.output) if isinstance(res.output, frozenset) else res.output
                audit = leakage_audit(res, secrets)
                report = [audit.passed, list(audit.violations), audit.messages_checked]
                digest.update(json.dumps([output, res.party_views, res.counters, report], default=sorted).encode())
                digest.update(res.transcript.to_jsonl().encode())
                runs += 1
    assert runs == 304
    assert digest.hexdigest() == _SWEEP_SHA256


def _first_vote():
    """A 3-party GCD run, its secrets, and the index in its log of its first vote record."""
    secrets = [245, 175, 35]
    res = gcd_protocol(secrets, 8, seed=4)
    at = next(i for i, entry in enumerate(res.transcript._log) if isinstance(entry, _Vote))
    return res, secrets, at


def test_out_of_range_vote_share_is_reported_as_the_per_message_audit_reports_it():
    res, secrets, at = _first_vote()
    vote = res.transcript._log[at]
    shares = [list(row) for row in vote.shares]
    shares[1][0] += len(secrets) + 1  # out of range, with the same column sum mod n+1
    res.transcript._log[at] = vote._replace(shares=shares)

    report = leakage_audit(res, secrets)
    assert not report.passed
    assert report == reference_leakage_audit(res, secrets)
    (violation,) = report.violations
    idx = int(violation.split(":")[0].removeprefix("message "))
    assert violation == f"message {idx}: share {shares[1][0]} outside the masking group"
    assert res.transcript.messages[idx].payload["value"] == shares[1][0]
    assert (res.transcript.messages[idx].sender, res.transcript.messages[idx].receiver) == (1, 0)


def test_vote_candidate_below_two_is_reported_as_the_per_message_audit_reports_it():
    res, secrets, at = _first_vote()
    res.transcript._log[at] = res.transcript._log[at]._replace(candidate=1)
    report = leakage_audit(res, secrets)
    assert not report.passed and report == reference_leakage_audit(res, secrets)
    assert [v.split(": ", 1)[1] for v in report.violations] == ["malformed vote candidate 1"]


def test_vote_tally_that_is_not_its_column_sum_is_a_violation():
    res, secrets, at = _first_vote()
    vote = res.transcript._log[at]
    modulus = len(secrets) + 1
    tallies = list(vote.tallies)
    tallies[0], tallies[1] = (tallies[0] + 1) % modulus, (tallies[1] - 1) % modulus  # same total
    res.transcript._log[at] = vote._replace(tallies=tallies)
    report = leakage_audit(res, secrets)
    assert reference_leakage_audit(res, secrets).passed  # each message alone is well formed
    assert not report.passed
    (violation,) = report.violations
    assert "are not the column sums of the shares" in violation
    idx = int(violation.split(":")[0].removeprefix("message "))
    assert res.transcript.messages[idx].payload["role"] == ROLE_VOTE_TALLY


def test_vote_result_that_contradicts_its_tallies_is_a_violation():
    res, secrets, at = _first_vote()
    vote = res.transcript._log[at]
    res.transcript._log[at] = vote._replace(result=not vote.result)
    report = leakage_audit(res, secrets)
    assert reference_leakage_audit(res, secrets).passed
    (violation,) = report.violations
    assert f"vote result {not vote.result} contradicts the tallies" in violation
    idx = int(violation.split(":")[0].removeprefix("message "))
    assert res.transcript.messages[idx].payload["role"] == ROLE_VOTE_RESULT
    assert report.messages_checked == reference_leakage_audit(res, secrets).messages_checked


def test_gcd_run_logs_each_vote_as_one_record():
    res, secrets, _ = _first_vote()
    votes = [entry for entry in res.transcript._log if isinstance(entry, _Vote)]
    vote_messages = [m for m in res.transcript.messages if str(m.payload.get("role", "")).startswith("vote-")]
    assert votes and len(vote_messages) == len(votes) * (len(secrets) ** 2 + 2)
    assert [v.result for v in votes] == [m.payload["value"] for m in vote_messages
                                         if m.payload["role"] == ROLE_VOTE_RESULT]


@st.composite
def _rings_and_handoffs(draw):
    """Ring records of n parties with classical messages between them, and
    handoffs placed before a ring or after the last, on passes inside a
    ring's span, at its edges or past every ring."""
    n = draw(st.integers(2, 4))
    rings = draw(st.lists(st.integers(1, 3).map(lambda k: 3 * k), min_size=1, max_size=3))  # 3 per iteration
    starts = list(itertools.accumulate([1] + rings))  # each ring's first pass, then one past the last
    edges = sorted({0, *starts, *(s - 1 for s in starts[1:]), starts[-1] + 1})
    passes = st.one_of(st.sampled_from(edges), st.integers(1, starts[-1] - 1))
    party = st.integers(0, n - 1)
    handoffs = draw(st.lists(st.tuples(st.integers(0, len(rings)), passes, party, party), max_size=6))
    return n, rings, handoffs


def test_ring_check_agrees_with_the_per_hop_walk():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(case=_rings_and_handoffs())
    def check(case):
        n, rings, handoffs = case
        transcripts = Transcript(), ReferenceTranscript()
        for t in transcripts:
            for position in range(len(rings) + 1):
                for at, p, sender, receiver in handoffs:
                    if at == position:
                        t.log(KIND_HANDOFF, sender, receiver, {"registers": ["t"], "pass": p, "direction": "forward"})
                if position < len(rings):
                    t.log(KIND_INT, 0, BROADCAST, {"role": ROLE_MODULUS, "value": 12, "layer": position})
                    t.log_ring(n, rings[position])
        ours, ref = transcripts
        assert ours.to_jsonl() == ref.to_jsonl()
        verdict = ours.verify_handoff_chain()
        assert verdict == ref.verify_handoff_chain()
        seen.add(verdict)
        if any(at < len(rings) and 1 + sum(rings[:at]) <= p <= sum(rings) for at, p, _, _ in handoffs):
            seen.add("a handoff before a ring on its span")

    check()
    assert seen == {True, False, "a handoff before a ring on its span"}


def test_lcm_run_builds_no_records_for_its_settled_tail(monkeypatch):
    import qperiod.mpqc as mpqc_mod
    import qperiod.periodfind as periodfind_mod

    built = []

    class CountingRecord(periodfind_mod.EqpaRecord):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(None)
            return super().__new__(cls, *args, **kwargs)

    runs = []

    def spy(*args, **kwargs):
        period, trace = eqpa(*args, **kwargs)
        runs.append((trace, len(built)))
        return period, trace

    monkeypatch.setattr(periodfind_mod, "EqpaRecord", CountingRecord)
    monkeypatch.setattr(mpqc_mod, "eqpa", spy)
    for secrets, bits in (([1, 1], 2), ([4, 6, 10], 5), ([4093, 4091], 12), ([3, 5, 7, 8], 4)):
        built.clear()
        runs.clear()
        res = lcm_protocol(secrets, bits, seed=3)
        assert res.output == math.lcm(*secrets)
        ((trace, built_in_run),) = runs
        records = trace.records
        head = next((i + 1 for i in reversed(range(len(records))) if records[i].updated), 0)
        assert built_in_run == head < len(records)
        assert len(records) * 3 == trace.fourier_calls == res.counters["fourier_calls"]


@pytest.mark.parametrize("protocol", [psu_protocol, psi_protocol], ids=["psu", "psi"])
def test_one_party_set_protocol_is_refused(protocol):
    with pytest.raises(ProtocolError, match=r"^need at least two parties$"):
        protocol([{0}], 4)


def test_loose_vote_result_that_is_not_boolean_is_a_violation():
    res = lcm_protocol([4, 6], 5, seed=0)
    res.transcript.log(KIND_INT, 0, BROADCAST, {"role": ROLE_VOTE_RESULT, "value": 1, "layer": 0})
    report = leakage_audit(res, [4, 6])
    assert report.violations == (f"message {len(res.transcript.messages) - 1}: vote result must be boolean",)


def test_party_views_count_a_message_logged_after_the_run():
    res = lcm_protocol([4, 6], 5, seed=0)
    before = res.party_views
    res.transcript.log(KIND_INT, 1, 0, {"role": ROLE_MASKED_MULTIPLE, "value": 12, "layer": 0})
    after = res.party_views
    assert [(v["sent"], v["received"]) for v in after] == [
        (before[0]["sent"], before[0]["received"] + 1),
        (before[1]["sent"] + 1, before[1]["received"]),
    ]
