"""Simulated n-party protocols: LCM, divisibility voting, PSU, GCD, PSI.

Parties communicate over an authenticated in-process channel; every
classical message is logged into a transcript with live counters, each
LCM run's register handoffs as one record of its ring passes, and each
divisibility vote as one record of its shares, tallies and result.  The LCM
protocol is the workhorse: each party masks its secret as y_i = x_i * q
with a random q chosen so that y_i always lands in [2^m, 2^{m+1}), the
coordinator broadcasts k = prod(y_i) (a guaranteed multiple of the joint
period), and the parties realise the joint oracle
|j>|0...> -> |j>|x mod r_0>...|x mod r_{n-1}> by passing a work register
around the ring.  Exact period finding on the joint function then returns
lcm(x_i) in a single invocation, with no repetitions.

Set protocols reduce to arithmetic: a set encodes as the product of the
primes imaging its elements, union becomes LCM of encodings, intersection
becomes GCD, and GCD itself is computed from the union of prime factors
plus masked divisibility votes on ascending prime powers.

Each public protocol validates its inputs and runs an internal body on one
run context (parties, transcript, layer stack).  Nested layers (the LCM in
PSU, the PSU and votes in GCD, the GCD in PSI) run their bodies on that same
context, so the whole run shares one transcript and one set of parties.

A per-run leakage audit checks that the only classical values on the wire
are masked multiples, the public modulus, masked vote shares, public vote
candidates/results, and protocol outputs, and that each vote's tallies and
result follow from its shares.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .factorint import encode_set, decode_set, factorize
from .periodfind import PeriodicFunction, eqpa

KIND_INT = "classical-integer"
KIND_SHARE = "classical-share"
KIND_HANDOFF = "register-handoff"
BROADCAST = "broadcast"

ROLE_MASKED_MULTIPLE = "masked-multiple"
ROLE_MODULUS = "modulus-broadcast"
ROLE_RESULT = "result-broadcast"
ROLE_VOTE_CANDIDATE = "vote-candidate"
ROLE_VOTE_SHARE = "vote-share"
ROLE_VOTE_TALLY = "vote-tally"
ROLE_VOTE_RESULT = "vote-result"


class ProtocolError(ValueError):
    """Invalid protocol inputs or violated choreography."""


@dataclass(frozen=True)
class TranscriptMessage:
    round: int
    sender: int | str
    receiver: int | str
    kind: str
    payload: dict
    counters: dict
    size = 1  # the messages it stands for in the log, as a record's ``size`` (not a field)

    def messages(self) -> tuple[TranscriptMessage]:
        return (self,)

    def _audit(self, idx: int, violations: list[str], layer_inputs: dict, secrets: list[int]) -> int:
        if self.kind == KIND_HANDOFF and isinstance(self.payload, dict):
            return 0  # a handoff moves registers, not values: the chain check walks it
        _check_message(self, idx, violations, layer_inputs, secrets)
        return 1

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "from": self.sender,
            "to": self.receiver,
            "kind": self.kind,
            "payload": self.payload,
            "counters": self.counters,
        }


class _Ring(NamedTuple):
    """The ring passes of one LCM run, stored in place of their n handoffs each.

    EQPA applies A, A^{-1}, A per iteration, the first A being the prep pass,
    so pass i of the run is inverse when i % 3 == 1 and forward otherwise,
    and carries Fourier count ``pass_no - 1 + 3 * (i // 3)``: one call per pass.
    """

    pass_no: int  # the number of the run's first pass
    passes: int
    n: int
    rounds: int  # the round counter before the run
    kind = None  # a record is no loose message

    @property
    def size(self) -> int:
        return self.n * self.passes

    def _audit(self, idx: int, violations: list[str], *context) -> int:
        return 0  # handoffs carry no classical value

    def messages(self) -> list[TranscriptMessage]:
        out = []
        forward = [(i, (i + 1) % self.n) for i in range(self.n)]
        inverse = [(b, a) for a, b in reversed(forward)]
        for i in range(self.passes):
            p, fourier = self.pass_no + i, self.pass_no - 1 + 3 * (i // 3)
            direction, hops = ("inverse", inverse) if i % 3 == 1 else ("forward", forward)
            for rounds, (a, b) in enumerate(hops, start=self.rounds + self.n * i + 1):
                payload = {"registers": ["t"], "pass": p, "direction": direction}
                counters = {"rounds": rounds, "oracle_passes": p, "fourier_calls": fourier}
                out.append(TranscriptMessage(rounds, a, b, KIND_HANDOFF, payload, counters))
        return out


class _Vote(NamedTuple):
    """One divisibility vote of n parties, stored in place of its n^2 + 2 messages.

    In order: party 0 broadcasts the candidate, party i sends share j of
    its no-vote to each party j != i (row by row), party j broadcasts its
    tally (the sum of column j mod n+1), and party 0 broadcasts the result
    (whether the tallies sum to 0 mod n+1).  All carry the vote's counters,
    its pass count standing as its Fourier count too.
    """

    layer: int
    candidate: int
    shares: list[list[int]]  # row i holds party i's shares of its own no-vote
    tallies: list[int]
    result: bool
    rounds: int  # the counters at the vote
    oracle_passes: int
    kind = None  # a record is no loose message

    @property
    def size(self) -> int:
        """The candidate, each share sent (all but the diagonal), each tally and the result."""
        return 2 + len(self.tallies) + sum(len(row) - (i < len(row)) for i, row in enumerate(self.shares))

    def _audit(self, idx: int, violations: list[str], layer_inputs: dict, secrets: list[int]) -> int:
        """Audit the vote, whose first message has index ``idx``, as :func:`leakage_audit` describes."""
        inputs = _inputs_of(self.layer, layer_inputs)
        n = len(self.tallies) if inputs is None else len(inputs)
        shaped = [len(self.tallies), *map(len, self.shares)] == [n] * (n + 1)  # n tallies, n rows of n shares
        if not shaped:
            violations.append(f"message {idx}: vote shares and tallies do not fit {n} parties")
        values = [v for row in self.shares for v in row]
        values += self.tallies
        ints = {*map(type, values)} <= {int, bool} or all(isinstance(v, int) for v in values)
        if not (shaped and inputs is not None and ints and 0 <= min(values) and max(values) <= n
                and isinstance(self.candidate, int) and self.candidate >= 2 and isinstance(self.result, bool)):
            for offset, msg in enumerate(self.messages()):
                _check_message(msg, idx + offset, violations, layer_inputs, secrets)
        if ints and shaped:
            modulus = n + 1
            if [sum(column) % modulus for column in zip(*self.shares)] != self.tallies:
                violations.append(f"message {idx + n * (n - 1) + 1}: vote tallies {self.tallies} "
                                  f"are not the column sums of the shares mod {modulus}")
            if self.result != (sum(self.tallies) % modulus == 0):
                violations.append(f"message {idx + n * n + 1}: "
                                  f"vote result {self.result} contradicts the tallies")
        return self.size

    def messages(self) -> list[TranscriptMessage]:
        def message(sender, receiver, kind: str, role: str, value) -> TranscriptMessage:
            counters = {"rounds": self.rounds, "oracle_passes": self.oracle_passes, "fourier_calls": self.oracle_passes}
            payload = {"role": role, "value": value, "layer": self.layer}
            return TranscriptMessage(self.rounds, sender, receiver, kind, payload, counters)

        out = [message(0, BROADCAST, KIND_INT, ROLE_VOTE_CANDIDATE, self.candidate)]
        for i, row in enumerate(self.shares):
            out.extend(message(i, j, KIND_SHARE, ROLE_VOTE_SHARE, share) for j, share in enumerate(row) if j != i)
        out.extend(message(j, BROADCAST, KIND_SHARE, ROLE_VOTE_TALLY, tally) for j, tally in enumerate(self.tallies))
        out.append(message(0, BROADCAST, KIND_INT, ROLE_VOTE_RESULT, self.result))
        return out


class Transcript:
    """Ordered message log with live round and pass counters (each pass is
    one Fourier call, so ``counters`` reports passes as ``fourier_calls`` too).

    An LCM run's ring passes are one record, and so is each divisibility
    vote; a record is expanded into its messages (n handoffs per ring pass,
    n^2 + 2 per vote) only when ``messages`` or ``to_jsonl`` is read.
    """

    def __init__(self) -> None:
        self._log: list[TranscriptMessage | _Ring | _Vote] = []
        self.rounds = 0
        self.oracle_passes = 0

    @property
    def counters(self) -> dict:
        return {"rounds": self.rounds, "oracle_passes": self.oracle_passes, "fourier_calls": self.oracle_passes}

    @property
    def messages(self) -> tuple[TranscriptMessage, ...]:
        return tuple(m for entry in self._log for m in entry.messages())

    def log(self, kind: str, sender, receiver, payload: dict) -> None:
        self._log.append(TranscriptMessage(self.rounds, sender, receiver, kind, payload, self.counters))

    def log_ring(self, n: int, passes: int) -> None:
        """An LCM run's ring passes of the work register, one per Fourier call; n rounds each."""
        self._log.append(_Ring(self.oracle_passes + 1, passes, n, self.rounds))
        self.oracle_passes += passes
        self.rounds += n * passes

    def log_vote(self, layer: int, candidate: int, shares: list[list[int]], tallies: list[int], result: bool) -> None:
        """A divisibility vote: its share matrix (row i is party i's shares), tallies and result."""
        self._log.append(_Vote(layer, candidate, shares, tallies, result, self.rounds, self.oracle_passes))

    def to_jsonl(self) -> str:
        return "".join(json.dumps(m.to_json_dict()) + "\n" for m in self.messages)

    def verify_handoff_chain(self) -> bool:
        """Each handoff pass must be a connected ring walk, and each handoff
        must name its pass with an int.

        A ring record's passes are connected walks by construction, so
        only a handoff logged as a loose message can break a chain; only
        then are the expanded ``messages`` walked hop by hop.
        """
        if all(entry.kind != KIND_HANDOFF for entry in self._log):
            return True
        last_by_pass: dict[int, int] = {}  # the last receiver on each pass
        for m in self.messages:
            if m.kind == KIND_HANDOFF:
                p = m.payload.get("pass") if isinstance(m.payload, dict) else None
                if type(p) is not int or last_by_pass.get(p, m.sender) != m.sender:  # a bool is no pass either
                    return False
                last_by_pass[p] = m.receiver
        return True


@dataclass(frozen=True)
class ProtocolResult:
    """One protocol run.  ``accept`` is always True and ``repetitions`` always 0,
    because EQPA is exact; both are kept for callers that still read them.
    ``party_views`` is read from the transcript's messages on each read.
    """

    output: object
    transcript: Transcript
    accept: bool = True
    repetitions: int = 0
    layer_inputs: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @property
    def counters(self) -> dict:
        return self.transcript.counters

    @property
    def party_views(self) -> tuple[dict, ...]:
        """Each party's message counts: a message counts once for its sender and once for its receiver."""
        messages = self.transcript.messages
        sent = Counter(m.sender for m in messages)
        received = Counter(m.receiver for m in messages)
        return tuple({"party": i, "sent": sent[i], "received": received[i], "output": self.output}
                     for i in range(len(self.layer_inputs[0][1])))


class _Context:
    """Shared run state: party generators (party i's at index i), transcript, layer stack."""

    def __init__(self, n: int, seed: int):
        self.rngs = [np.random.default_rng(q) for q in np.random.SeedSequence(seed).spawn(n)]
        self.transcript = Transcript()
        self.layers: list[tuple[str, tuple[int, ...]]] = []

    def push_layer(self, name: str, inputs: Sequence[int]) -> int:
        self.layers.append((name, tuple(int(v) for v in inputs)))
        return len(self.layers) - 1

    def log_value(self, sender, receiver, role: str, value, layer: int) -> None:
        self.transcript.log(KIND_INT, sender, receiver, {"role": role, "value": value, "layer": layer})


def _run(n: int, seed: int, body) -> ProtocolResult:
    """Run ``body`` on one fresh context of n parties and close the run."""
    ctx = _Context(n, seed)
    output = body(ctx)
    return ProtocolResult(output, ctx.transcript, layer_inputs=tuple(ctx.layers))


def _publish(ctx: _Context, layer: int, output):
    """Broadcast a layer's output (a set as its sorted elements) and return it."""
    ctx.log_value(0, BROADCAST, ROLE_RESULT, sorted(output) if isinstance(output, frozenset) else output, layer)
    return output


def _check_secrets(secrets: Sequence[int], m_bits: int) -> list[int]:
    secrets = [int(s) for s in secrets]
    if len(secrets) < 2:
        raise ProtocolError("need at least two parties")
    if m_bits < 1:
        raise ProtocolError(f"bits must be >= 1, got {m_bits}")
    for x in secrets:
        if not 1 <= x < (1 << m_bits):
            raise ProtocolError(f"secret {x} outside [1, 2^{m_bits})")
    return secrets


# ---------------------------------------------------------------------------
# LCM protocol


def _mask_secret(x: int, m_bits: int, rng: np.random.Generator) -> int:
    """Multiply x by a random q so the product lands in [2^m, 2^{m+1})."""
    lo = -(-(1 << m_bits) // x)  # ceil
    hi = -(-(1 << (m_bits + 1)) // x) - 1
    if hi >= 1 << 63:  # rng.integers draws int64
        raise ProtocolError(f"masking range at {m_bits} bits passes int64")
    q = int(rng.integers(lo, hi + 1))
    return x * q


def _joint_residue_function(secrets: Sequence[int], k: int) -> PeriodicFunction:
    """Mixed-radix packing of (x mod r_0, ..., x mod r_{n-1}) into one value.

    Injective per residue pattern, so the packed function has exactly the
    joint period lcm(r_i); all values stay below prod(r_i) <= k.  The
    residue moduli are declared on the function, so the block engine takes
    that period from them and never calls ``evaluate``.
    """
    xs = [int(s) for s in secrets]

    def evaluate(j):
        j = np.asarray(j, dtype=np.int64)
        out = np.zeros_like(j)
        w = 1
        for x in xs:
            out += (j % x) * w
            w *= x
        return out

    return PeriodicFunction(modulus=k, evaluator=evaluate, residues=tuple(xs))


def lcm_protocol(secrets: Sequence[int], m_bits: int, seed: int = 0) -> ProtocolResult:
    """Jointly compute lcm of the secrets without revealing them.

    Single invocation: the exact period finder is deterministic, so no
    repetition or verification round is ever needed.
    """
    secrets = _check_secrets(secrets, m_bits)
    return _run(len(secrets), seed, lambda ctx: _lcm(ctx, secrets, m_bits))


def _lcm(ctx: _Context, secrets: Sequence[int], m_bits: int) -> int:
    layer = ctx.push_layer("lcm", secrets)

    # step 1: every party sends its masked multiple to the coordinator
    ys = [_mask_secret(x, m_bits, rng) for rng, x in zip(ctx.rngs, secrets)]
    for i in range(1, len(ys)):
        ctx.log_value(i, 0, ROLE_MASKED_MULTIPLE, ys[i], layer)

    # step 2: coordinator broadcasts the public modulus
    k = math.prod(ys)
    ctx.log_value(0, BROADCAST, ROLE_MODULUS, k, layer)

    # steps 4-6: the prep pass, then exact period finding on the joint
    # function.  The prep pass's uncompute check needs no branch: t holds an
    # exact copy of h, so it reads 0 in every honest run.  From the prep pass
    # on, each A, A^{-1} and A walks the ring once: one pass per Fourier call.
    result, trace = eqpa(_joint_residue_function(secrets, k), ctx.rngs[0])
    ctx.transcript.log_ring(len(secrets), trace.fourier_calls)
    return _publish(ctx, layer, result)


# ---------------------------------------------------------------------------
# masked divisibility voting


def _shares_from_masks(value: int, masks: Sequence[int], modulus: int) -> list[int]:
    """Additive shares of ``value`` given the random masks (last share fixes the sum)."""
    shares = [int(m) % modulus for m in masks]
    shares.append((value - sum(shares)) % modulus)
    return shares


def additive_shares(value: int, count: int, modulus: int, rng: np.random.Generator) -> list[int]:
    # count - 1 single draws take the values of one draw of size count - 1
    # and leave the generator in the same state, without the array set-up
    # that makes a sized draw cost about four single ones
    masks = [rng.integers(0, modulus) for _ in range(count - 1)]
    return _shares_from_masks(value, masks, modulus)


def divisibility_vote(secrets: Sequence[int], candidate: int, rng: np.random.Generator | None = None) -> bool:
    """True iff the candidate divides every secret.

    Realised as a masked additive sum of no-votes modulo n+1: the sum is 0
    exactly when everyone voted yes.  Each share is marginally uniform, so
    no share shows its sender's vote, but the broadcast tallies sum to the
    number of no-votes, which every party can read.
    """
    if candidate < 1:
        raise ProtocolError("candidate must be positive")
    secrets = [int(s) for s in secrets]
    seed = int((rng if rng is not None else np.random.default_rng(0)).integers(1 << 31))
    result = _run(len(secrets), seed, lambda ctx: _vote(ctx, secrets, candidate, ctx.push_layer("vote", secrets)))
    return result.output


def _vote(ctx: _Context, secrets: Sequence[int], candidate: int, layer: int) -> bool:
    modulus = len(secrets) + 1
    # share matrix: row i = party i's shares of its own no-vote
    shares = [additive_shares(0 if x % candidate == 0 else 1, len(secrets), modulus, rng)
              for rng, x in zip(ctx.rngs, secrets)]
    tallies = [sum(column) % modulus for column in zip(*shares)]
    result = sum(tallies) % modulus == 0
    ctx.transcript.log_vote(layer, candidate, shares, tallies, result)
    return result


# ---------------------------------------------------------------------------
# set protocols and GCD


def _validate_sets(secret_sets: Sequence[Iterable[int]], universe_size: int) -> list[frozenset[int]]:
    if universe_size < 0:
        raise ProtocolError(f"universe size must be >= 0, got {universe_size}")
    sets = [frozenset(int(u) for u in s) for s in secret_sets]
    if any(u < 0 or u >= universe_size for s in sets for u in s):
        raise ProtocolError(f"set element outside universe of size {universe_size}")
    if len(sets) < 2:
        raise ProtocolError("need at least two parties")
    return sets


def _set_layer(ctx: _Context, name: str, encodings: Sequence[int], universe_size: int, inner) -> frozenset[int]:
    """Push a set layer, run ``inner`` (``_lcm`` or ``_gcd``) on the encodings, publish the decoded set."""
    layer = ctx.push_layer(name, encodings)
    m_hat = max(e.bit_length() for e in encodings)
    # a union or intersection of encodings always decodes
    return _publish(ctx, layer, decode_set(inner(ctx, encodings, m_hat), universe_size))


def psu_protocol(secret_sets: Sequence[Iterable[int]], universe_size: int, seed: int = 0) -> ProtocolResult:
    """Private set union: encode as prime products, take the joint LCM, decode."""
    encodings = [encode_set(s) for s in _validate_sets(secret_sets, universe_size)]
    return _run(len(encodings), seed, lambda ctx: _set_layer(ctx, "psu", encodings, universe_size, _lcm))


def gcd_protocol(secrets: Sequence[int], m_bits: int, seed: int = 0) -> ProtocolResult:
    """Jointly compute gcd of the secrets.

    Each party factors its own input locally (quantum splitting for small
    cofactors), the union of prime factors is computed privately, and the
    exponent of every prime in the union is fixed by masked divisibility
    votes on ascending powers.
    """
    secrets = _check_secrets(secrets, m_bits)
    return _run(len(secrets), seed, lambda ctx: _gcd(ctx, secrets, m_bits))


def _gcd(ctx: _Context, secrets: Sequence[int], m_bits: int) -> int:
    layer = ctx.push_layer("gcd", secrets)

    # step 1: each party factors its input locally and keeps its radical (no messages)
    radicals = [math.prod(set(factorize(x, rng).factors)) for rng, x in zip(ctx.rngs, secrets)]

    # step 2: private union of the prime sets: the joint LCM of the radicals,
    # published as its primes
    psu = ctx.push_layer("psu", radicals)
    lcm = _lcm(ctx, radicals, max(r.bit_length() for r in radicals))
    union = _publish(ctx, psu, frozenset(factorize(lcm).factors))

    # step 3: ascending power votes fix each prime's common exponent
    result = 1
    for p in sorted(union):
        exponent = 0
        while p ** (exponent + 1) < (1 << m_bits):
            if not _vote(ctx, secrets, p ** (exponent + 1), layer):
                break
            exponent += 1
        result *= p**exponent
    return _publish(ctx, layer, result)


def psi_protocol(secret_sets: Sequence[Iterable[int]], universe_size: int, seed: int = 0) -> ProtocolResult:
    """Private set intersection: encode, jointly compute GCD, decode."""
    encodings = [encode_set(s) for s in _validate_sets(secret_sets, universe_size)]
    return _run(len(encodings), seed, lambda ctx: _set_layer(ctx, "psi", encodings, universe_size, _gcd))


# ---------------------------------------------------------------------------
# leakage audit


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple[str, ...]
    messages_checked: int


_EQUALITY_EXEMPT = (  # a tuple: an unhashable role is compared, not hashed, so it is an unknown role
    ROLE_RESULT,
    ROLE_VOTE_CANDIDATE,
    ROLE_VOTE_SHARE,
    ROLE_VOTE_TALLY,
    ROLE_VOTE_RESULT,
)


def leakage_audit(result: ProtocolResult, secrets: Sequence[int]) -> AuditReport:
    """Check that every classical message is of an allowed, properly-masked form.

    Allowed: masked multiples of the sender's layer input (strictly larger
    and divisible), the public modulus, vote candidates/shares/tallies/
    results, and broadcast outputs.  Any unknown message role, any malformed
    payload or layer, and any raw secret value outside the exempt roles fails.

    A vote record is checked in bulk; only if its layer or some value in
    it is out of form are its messages checked one by one, so violations
    name the same message indices as an audit of the expanded ``messages``.
    A vote must also be consistent: each tally the sum of its share column
    mod n+1, and the result true exactly when the tallies sum to 0 mod n+1.
    """
    secrets = [int(s) for s in secrets]
    layer_inputs = {i: vals for i, (_, vals) in enumerate(result.layer_inputs)}
    violations: list[str] = []
    checked = 0
    idx = 0  # the index of the entry's first message in the expanded ``messages``
    for entry in result.transcript._log:
        checked += entry._audit(idx, violations, layer_inputs, secrets)
        idx += entry.size

    if not result.transcript.verify_handoff_chain():
        violations.append("register handoffs do not form connected ring passes")

    return AuditReport(passed=not violations, violations=tuple(violations), messages_checked=checked)


def _inputs_of(layer, layer_inputs: dict) -> tuple[int, ...] | None:
    """The inputs of ``layer`` if it is an int (not a bool) naming a layer of the run, else None."""
    return layer_inputs.get(layer) if type(layer) is int else None


def _check_message(msg: TranscriptMessage, idx: int, violations: list[str],
                   layer_inputs: dict, secrets: list[int]) -> None:
    """Audit one classical message, the one at index ``idx`` of the expanded ``messages``."""
    if not isinstance(msg.payload, dict):
        violations.append(f"message {idx}: malformed payload {msg.payload!r}")
        return
    role = msg.payload.get("role")
    value = msg.payload.get("value")
    layer = msg.payload.get("layer")
    basis = _inputs_of(layer, layer_inputs)
    if basis is None and "layer" in msg.payload:
        violations.append(f"message {idx}: malformed layer {layer!r}")
    inputs = secrets if basis is None else basis
    n = len(inputs)

    if role == ROLE_MASKED_MULTIPLE:
        if type(msg.sender) is not int or not 0 <= msg.sender < n:
            violations.append(f"message {idx}: masked multiple from unknown sender")
        else:
            x = inputs[msg.sender]
            if type(value) is not int or value % x != 0 or value <= x:
                violations.append(f"message {idx}: value {value!r} is not a masked multiple of the sender's input")
    elif role == ROLE_MODULUS:
        if type(value) is not int or any(value % x != 0 for x in inputs):
            violations.append(f"message {idx}: modulus {value!r} not divisible by every input")
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
        if basis is None:
            basis = {*secrets, *(v for vals in layer_inputs.values() for v in vals)}
        if value in basis:
            violations.append(f"message {idx}: raw secret value {value} on the wire")
