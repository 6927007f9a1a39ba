"""Byzantine-tolerant clause sharing between portfolio lanes.

The portfolio lanes race the same formula, so a glue clause learned in
one lane prunes the search of every other lane — *if* it can be
trusted.  PR 3's fault injection makes the threat concrete: a corrupted
worker can emit arbitrary bytes, including syntactically valid clauses
that are semantically wrong, and a single such clause silently poisons
every importer.  This module therefore treats every shared clause as an
attack surface and validates it end to end:

**Frame format.**  Each exported clause crosses the result queue as one
binary frame: a CRC32 (over everything that follows) + the origin lane
+ a per-attempt sequence number + the clause's LBD, followed by the
DIMACS literals as little-endian int32s.  The frame is validated twice
— once by the parent-side :class:`ClauseBus` before fan-out, and again
by each importing solver before attachment — so neither queue hop nor a
lying exporter can slip a damaged clause through.

**Validation layers** (each rejection is attributed to the emitting
lane, with a severity):

* *hard* — evidence of corruption or a protocol violation an honest
  exporter can never produce: a CRC mismatch, a malformed frame, an
  out-of-order sequence number, a zero/out-of-range literal, a
  tautology, an LBD above the negotiated export bound, or a clause the
  sampled semantic spot-check *refutes* (a bounded solve finds a model
  of ``formula ∧ ¬C``, proving C is not implied).
* *benign* — honest clauses an importer still cannot use: literals over
  variables this importer's inprocessing eliminated, literals already
  assigned at its level 0, or a clause its unit propagation cannot
  one-step justify (``rup-unproven``).  These are dropped and counted
  but never feed quarantine — an honest slow lane differs from a
  Byzantine one precisely in that it produces *zero* hard evidence.

**Quarantine.**  A lane accumulating ``quarantine_threshold`` hard
rejections is quarantined: its pending clauses are purged fleet-wide,
``lane_quarantine`` is traced, and the supervisor fails its attempt
through :meth:`~repro.parallel.pool.JobPool.fail`, so the normal
RetryPolicy/checkpoint machinery decides whether it is relaunched.
Soundness never rests on quarantine alone: importers attach a clause
only after their *own* unit propagation proves it (the RUP gate), so
imports are logical consequences by construction and a poisoned fleet
can degrade to UNKNOWN but never to a wrong answer — and the
trusted-results gate still verifies the winner independently.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass, field

#: Queue-tag sentinel for clause frames: ``("share", lane, attempt, seq)``.
#: 4-tuples can never collide with result tags (2-tuples) or telemetry
#: (3-tuples), and carrying ``seq`` keeps every frame distinct in the
#: parent's drained dict.
SHARE_TAG = "share"
#: Queue-tag sentinel for importer-side rejection notices:
#: ``("share_reject", lane, attempt, n)`` with a payload naming the
#: origin lane, the failed layer, and its severity.
SHARE_REJECT_TAG = "share_reject"

#: Default source-side export filter: the glue tier (LBD <= 3), matching
#: ``SolverConfig.glue_keep_max_lbd``.
DEFAULT_SHARE_MAX_LBD = 3
#: Default fraction of accepted clauses given the semantic spot-check.
DEFAULT_VERIFY_FRACTION = 0.1
#: Hard rejections before a lane is quarantined.
DEFAULT_QUARANTINE_THRESHOLD = 3
#: Conflict budget of one semantic spot-check sub-solve.  Small on
#: purpose: the check runs inline in the supervision loop, so its worst
#: case (an *implied* clause, where refutation needs a full UNSAT
#: sub-proof) must stay far below the loop's poll cadence.
SPOT_CHECK_CONFLICTS = 150
#: Capacity of each pool slot's import queue (frames; overflow is dropped
#: and counted, never blocks the bus).
IMPORT_QUEUE_CAPACITY = 256
#: Bound on the bus's duplicate-suppression memory.
_DEDUP_CAPACITY = 65536

SEVERITY_HARD = "hard"
SEVERITY_BENIGN = "benign"

#: Frame header: crc32, origin lane, sequence number, lbd.
_HEADER = struct.Struct("<IIIi")


class ShareFrameError(ValueError):
    """A shared-clause frame failed structural validation."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


def encode_share_frame(origin: int, seq: int, lbd: int, literals) -> bytes:
    """Pack one clause into a CRC-framed byte string."""
    body = struct.pack(f"<{len(literals)}i", *literals)
    tail = _HEADER.pack(0, origin, seq, lbd)[4:] + body
    return struct.pack("<I", zlib.crc32(tail)) + tail


def decode_share_frame(frame: bytes) -> tuple[int, int, int, tuple[int, ...]]:
    """Unpack and CRC-check one frame; returns (origin, seq, lbd, literals).

    Raises :class:`ShareFrameError` with ``reason`` in ``bad-frame`` /
    ``bad-crc`` / ``zero-literal`` — all hard evidence, since an honest
    exporter computes the CRC over exactly what it sends.
    """
    if not isinstance(frame, (bytes, bytearray)) or len(frame) < _HEADER.size:
        raise ShareFrameError("bad-frame", "frame too short or not bytes")
    if (len(frame) - _HEADER.size) % 4 != 0:
        raise ShareFrameError("bad-frame", "frame length not literal-aligned")
    crc, origin, seq, lbd = _HEADER.unpack_from(frame)
    if zlib.crc32(frame[4:]) != crc:
        raise ShareFrameError("bad-crc", "frame CRC mismatch")
    count = (len(frame) - _HEADER.size) // 4
    if count == 0:
        raise ShareFrameError("bad-frame", "frame carries no literals")
    literals = struct.unpack_from(f"<{count}i", frame, _HEADER.size)
    if any(literal == 0 for literal in literals):
        raise ShareFrameError("zero-literal", "literal 0 inside clause")
    return origin, seq, lbd, literals


def clause_key(literals) -> tuple[int, ...]:
    """Canonical identity of a clause for duplicate suppression."""
    return tuple(sorted(literals))


def is_tautology(literals) -> bool:
    """True when the clause contains a literal and its negation (or dups)."""
    seen = set(literals)
    return len(seen) != len(tuple(literals)) or any(-lit in seen for lit in seen)


# ======================================================================
# Worker side: the share client attached to a solver
# ======================================================================
class ShareClient:
    """One lane's endpoint on the clause bus (lives inside the worker).

    ``export`` posts CRC-framed clauses on the result queue under the
    dedicated :data:`SHARE_TAG`; ``drain`` pulls parent-validated frames
    from this lane's import queue; ``reject`` reports an import-side
    validation failure back to the parent for attribution.  All posting
    is best-effort — a full or broken queue must never kill the solve.

    ``poison_vars`` (set by the ``corrupt_share`` fault) turns the
    client Byzantine: exports rotate through a semantically wrong clause
    under a *valid* CRC (flipped first literal), a bit-flipped frame
    (CRC mismatch), and an out-of-range literal — the three lie shapes
    the validation layers must each catch.
    """

    def __init__(
        self,
        lane: int,
        attempt: int,
        results,
        import_queue=None,
        *,
        export_max_lbd: int = DEFAULT_SHARE_MAX_LBD,
        poison_vars: int | None = None,
    ) -> None:
        self.lane = lane
        self.attempt = attempt
        self.results = results
        self.import_queue = import_queue
        self.export_max_lbd = export_max_lbd
        self.poison_vars = poison_vars
        self._seq = 0
        self._reject_seq = 0

    def export(self, dimacs_literals, lbd: int) -> bool:
        """Frame and post one learned clause; True when actually posted.

        The sequence number only advances on a successful post: a frame
        lost to a full queue must not leave a gap, because the bus reads
        gaps as hard (Byzantine) evidence and an honest lane must never
        produce any.
        """
        seq = self._seq
        literals = list(dimacs_literals)
        if self.poison_vars is not None:
            if seq % 3 == 0:
                literals[0] = -literals[0]  # semantic lie, CRC still valid
            elif seq % 3 == 2:
                literals[-1] = self.poison_vars + 7  # unknown variable
        frame = encode_share_frame(self.lane, seq, lbd, literals)
        if self.poison_vars is not None and seq % 3 == 1:
            corrupted = bytearray(frame)
            corrupted[len(corrupted) // 2] ^= 0x10  # bit rot: CRC mismatch
            frame = bytes(corrupted)
        try:
            self.results.put_nowait(((SHARE_TAG, self.lane, self.attempt, seq), frame))
        except Exception:
            return False
        self._seq += 1
        return True

    def drain(self) -> list[tuple[int, bytes]]:
        """Pull every pending (origin, frame) pair from the import queue.

        The queue belongs to the worker's pool slot, which runs one job
        after another, so only frames addressed to this lane and attempt
        are kept: a frame the bus routed to the slot's previous job can
        never reach this one, however late it arrives.
        """
        if self.import_queue is None:
            return []
        pending: list[tuple[int, bytes]] = []
        while True:
            try:
                lane, attempt, origin, frame = self.import_queue.get_nowait()
            except Exception:
                return pending
            if (lane, attempt) == (self.lane, self.attempt):
                pending.append((origin, frame))

    def reject(self, origin: int, reason: str, severity: str) -> None:
        """Report one import-side rejection to the parent (best effort)."""
        notice = {"origin": origin, "reason": reason, "severity": severity}
        tag = (SHARE_REJECT_TAG, self.lane, self.attempt, self._reject_seq)
        self._reject_seq += 1
        try:
            self.results.put_nowait((tag, notice))
        except Exception:
            pass


# ======================================================================
# Parent side: the validating bus
# ======================================================================
@dataclass
class LaneShareState:
    """Per-lane sharing bookkeeping, reset on every (re)launch."""

    attempt: int = -1
    import_queue: object | None = None
    next_seq: int = 0
    exported: int = 0
    hard_rejections: int = 0
    benign_rejections: int = 0
    quarantined: bool = False
    outbox: deque = field(default_factory=deque)
    dropped: int = 0


class ClauseBus:
    """Parent-side hub: validate, spot-check, dedup, fan out, attribute.

    The bus owns all fleet-level sharing state.  Workers talk to it only
    through queue frames; the :class:`~repro.parallel.pool.JobPool` it
    is attached to calls :meth:`offer` / :meth:`notice` (via
    :func:`route_shares`) and :meth:`pump` once per tick, and the
    portfolio calls :meth:`poisoned_lanes` to learn which lanes crossed
    the quarantine threshold.
    """

    def __init__(
        self,
        formula,
        num_lanes: int,
        *,
        max_lbd: int = DEFAULT_SHARE_MAX_LBD,
        verify_fraction: float = DEFAULT_VERIFY_FRACTION,
        quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
        rng=None,
        trace=None,
    ) -> None:
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be within [0, 1]")
        if quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        self.formula = formula
        self.max_lbd = max_lbd
        self.verify_fraction = verify_fraction
        self.quarantine_threshold = quarantine_threshold
        self.rng = rng
        self.trace = trace
        self.lanes = [LaneShareState() for _ in range(num_lanes)]
        self._probe = None  # lazy persistent spot-check solver
        #: Sampled clauses awaiting their semantic check, one per pump
        #: tick — a spot check solves a bounded sub-problem, and running
        #: it inline in :meth:`offer` would block the supervision loop
        #: behind clause validation.  Deferring conviction is safe:
        #: importers RUP-gate every clause, so a lie that is forwarded
        #: before its conviction still cannot attach anywhere.
        self._pending_checks: deque = deque()
        self._seen: set[tuple[int, ...]] = set()
        self._seen_order: deque = deque()
        self.accepted_total = 0
        self.rejected_total = 0
        self.forwarded_total = 0
        self.dropped_total = 0
        self.spot_checks = 0
        self.spot_refuted = 0

    # ------------------------------------------------------------- wiring
    def attach(self, lane: int, attempt: int, import_queue) -> None:
        """Register a fresh (re)launch: new attempt, clean sharing slate."""
        state = self.lanes[lane]
        state.attempt = attempt
        state.import_queue = import_queue
        state.next_seq = 0
        state.exported = 0
        state.hard_rejections = 0
        state.benign_rejections = 0
        state.quarantined = False
        state.outbox.clear()

    def detach(self, lane: int) -> None:
        """Drop a finished lane: no more imports will be flushed to it."""
        state = self.lanes[lane]
        state.import_queue = None
        state.outbox.clear()

    # ----------------------------------------------------------- ingress
    def offer(self, lane: int, attempt: int, frame) -> None:
        """Validate one exported frame and stage it for the other lanes."""
        if not 0 <= lane < len(self.lanes):
            return
        state = self.lanes[lane]
        if attempt != state.attempt or state.quarantined:
            return  # stale post from a terminated attempt, or muted lane
        try:
            origin, seq, lbd, literals = decode_share_frame(frame)
        except ShareFrameError as error:
            self._reject(lane, error.reason, SEVERITY_HARD, detail=str(error))
            return
        if origin != lane:
            self._reject(lane, "origin-mismatch", SEVERITY_HARD, seq=seq)
            return
        if seq != state.next_seq:
            state.next_seq = seq + 1
            self._reject(lane, "bad-sequence", SEVERITY_HARD, seq=seq)
            return
        state.next_seq = seq + 1
        if lbd > self.max_lbd or lbd < 0:
            self._reject(lane, "lbd-filter", SEVERITY_HARD, seq=seq)
            return
        if not literals:
            self._reject(lane, "short-clause", SEVERITY_HARD, seq=seq)
            return
        if any(abs(lit) > self.formula.num_variables for lit in literals):
            self._reject(lane, "out-of-range", SEVERITY_HARD, seq=seq)
            return
        if is_tautology(literals):
            self._reject(lane, "tautology", SEVERITY_HARD, seq=seq)
            return
        key = clause_key(literals)
        if key in self._seen:
            return  # duplicate across lanes: silently suppressed
        if self.rng is not None and self.rng.random() < self.verify_fraction:
            if len(self._pending_checks) >= _DEDUP_CAPACITY // 64:
                self._pending_checks.popleft()  # shed oldest, no blame
            self._pending_checks.append((lane, attempt, seq, literals))
        self._seen.add(key)
        self._seen_order.append(key)
        if len(self._seen_order) > _DEDUP_CAPACITY:
            self._seen.discard(self._seen_order.popleft())
        state.exported += 1
        self.accepted_total += 1
        if self.trace is not None:
            self.trace.emit(
                {
                    "type": "share_export",
                    "lane": lane,
                    "attempt": attempt,
                    "seq": seq,
                    "size": len(literals),
                    "lbd": lbd,
                }
            )
        for target, other in enumerate(self.lanes):
            if target == lane or other.import_queue is None or other.quarantined:
                continue
            other.outbox.append((lane, frame))

    def notice(self, importer: int, attempt: int, payload) -> None:
        """Fold one importer-side rejection notice into the attribution."""
        if not isinstance(payload, dict):
            return
        if not 0 <= importer < len(self.lanes):
            return
        if attempt != self.lanes[importer].attempt:
            return
        origin = payload.get("origin")
        reason = str(payload.get("reason", "unknown"))
        severity = payload.get("severity")
        severity = SEVERITY_HARD if severity == SEVERITY_HARD else SEVERITY_BENIGN
        if isinstance(origin, int) and 0 <= origin < len(self.lanes):
            self._reject(origin, reason, severity, importer=importer)

    def _reject(
        self, lane: int, reason: str, severity: str, *, seq=None, importer=None, detail=None
    ) -> None:
        state = self.lanes[lane]
        if severity == SEVERITY_HARD:
            state.hard_rejections += 1
        else:
            state.benign_rejections += 1
        self.rejected_total += 1
        if self.trace is not None:
            event = {
                "type": "share_reject",
                "lane": lane,
                "reason": reason,
                "severity": severity,
            }
            if seq is not None:
                event["seq"] = seq
            if importer is not None:
                event["importer"] = importer
            if detail is not None:
                event["detail"] = detail
            self.trace.emit(event)

    # ------------------------------------------------------- spot checks
    def spot_check(self, literals) -> str:
        """Bounded semantic check of one clause against the formula.

        Solves ``formula ∧ ¬C`` under a small conflict budget.  ``SAT``
        proves the clause is *not* implied — hard Byzantine evidence.
        ``UNSAT`` proves it implied.  A budgeted ``UNKNOWN`` is
        inconclusive and must never be blamed on the exporter: an honest
        lane's clauses are implied, so this check can only ever convict
        a liar.

        ``¬C`` rides as *assumptions* on one persistent incremental
        probe solver, built lazily on the first check — no per-check
        formula copy, and clauses the probe learns speed up every later
        check.  The probe's learned clauses are consequences of the
        formula alone, so reuse never changes a verdict.
        """
        from repro.solver.result import SolveStatus
        from repro.solver.solver import Solver

        self.spot_checks += 1
        if self._probe is None:
            from repro.solver.config import VERIFY_OFF, config_by_name

            self._probe = Solver(
                self.formula,
                config=config_by_name(
                    "berkmin", proof_logging=False, verification=VERIFY_OFF
                ),
            )
        result = self._probe.solve(
            assumptions=[-literal for literal in literals],
            max_conflicts=SPOT_CHECK_CONFLICTS,
        )
        if result.status is SolveStatus.SAT:
            self.spot_refuted += 1
            return "refuted"
        if result.status is SolveStatus.UNSAT:
            return "implied"
        return "unknown"

    # ------------------------------------------------------------ egress
    def pump(self) -> int:
        """Flush staged clauses into the lanes' import queues.

        Returns the number of frames forwarded this tick.  A full queue
        drops the frame (counted, traced as ``dropped``) — backpressure
        must never stall the supervision loop.  Also runs at most one
        deferred semantic spot check, so conviction latency is bounded
        by the tick cadence while the loop never blocks behind a check.
        """
        if self._pending_checks:
            lane, attempt, seq, literals = self._pending_checks.popleft()
            state = self.lanes[lane]
            if attempt == state.attempt and not state.quarantined:
                if self.spot_check(literals) == "refuted":
                    self._reject(lane, "refuted", SEVERITY_HARD, seq=seq)
        forwarded = 0
        for target, state in enumerate(self.lanes):
            if not state.outbox or state.import_queue is None:
                continue
            sent = 0
            dropped = 0
            while state.outbox:
                origin, frame = state.outbox.popleft()
                try:
                    state.import_queue.put_nowait(
                        (target, state.attempt, origin, frame)
                    )
                    sent += 1
                except Exception:
                    dropped += 1
            if dropped:
                state.dropped += dropped
                self.dropped_total += dropped
            if sent or dropped:
                forwarded += sent
                self.forwarded_total += sent
                if self.trace is not None:
                    event = {"type": "share_import", "lane": target, "count": sent}
                    if dropped:
                        event["dropped"] = dropped
                    self.trace.emit(event)
        return forwarded

    def purge_origin(self, lane: int) -> int:
        """Drop every staged clause originating from ``lane`` fleet-wide."""
        purged = 0
        for state in self.lanes:
            kept = deque(item for item in state.outbox if item[0] != lane)
            purged += len(state.outbox) - len(kept)
            state.outbox = kept
        return purged

    # -------------------------------------------------------- quarantine
    def poisoned_lanes(self) -> list[int]:
        """Lanes over the hard-rejection threshold, not yet quarantined."""
        return [
            lane
            for lane, state in enumerate(self.lanes)
            if not state.quarantined
            and state.hard_rejections >= self.quarantine_threshold
        ]

    def mark_quarantined(self, lane: int) -> LaneShareState:
        """Mute a lane and purge its staged clauses; returns its state."""
        state = self.lanes[lane]
        state.quarantined = True
        self.purge_origin(lane)
        self._pending_checks = deque(
            item for item in self._pending_checks if item[0] != lane
        )
        return state

    def totals(self) -> dict:
        """Fleet-level sharing counters (the dashboard's aggregate row)."""
        return {
            "accepted": self.accepted_total,
            "forwarded": self.forwarded_total,
            "rejected": self.rejected_total,
            "dropped": self.dropped_total,
            "spot_checks": self.spot_checks,
            "spot_refuted": self.spot_refuted,
        }


def route_shares(collected: dict, bus: ClauseBus | None) -> int:
    """Pop share frames and rejection notices out of a drained dict.

    Mirrors :func:`~repro.parallel.worker.route_telemetry`: sharing
    rides the result queue under 4-tuple tags, and this sweep keeps the
    pool's "every remaining tag is a result" invariant intact.  With no
    bus the entries are still popped (and dropped), so stray frames can
    never wedge a non-sharing supervisor.  Returns the number of entries
    routed.
    """
    routed = 0
    for tag in [key for key in collected if isinstance(key, tuple) and len(key) == 4]:
        if tag[0] not in (SHARE_TAG, SHARE_REJECT_TAG):
            continue
        payload = collected.pop(tag)
        routed += 1
        if bus is None:
            continue
        _, lane, attempt, _ = tag
        if not isinstance(lane, int) or not isinstance(attempt, int):
            continue
        if tag[0] == SHARE_TAG:
            bus.offer(lane, attempt, payload)
        else:
            bus.notice(lane, attempt, payload)
    return routed
