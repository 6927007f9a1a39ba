"""Validated clause sharing: frame codec, bus, import gate, quarantine.

The import-validation tests drive `Solver._import_shared` directly with
a fake share client — a rejected frame must leave the solver
bit-for-bit untouched and the rejection must be attributed to the
emitting lane with the right severity.
"""

import queue
import random

import pytest

from repro.generators import pigeonhole_formula, planted_ksat, queens_formula
from repro.parallel import PortfolioSolver
from repro.parallel.sharing import (
    DEFAULT_QUARANTINE_THRESHOLD,
    SEVERITY_BENIGN,
    SEVERITY_HARD,
    AdaptiveLaneManager,
    ClauseBus,
    ShareFrameError,
    clause_key,
    decode_share_frame,
    encode_share_frame,
    is_tautology,
    mutate_config,
)
from repro.reliability import FaultPlan
from repro.reliability.faults import FAULT_CORRUPT_SHARE
from repro.solver.config import berkmin_config, config_by_name
from repro.solver.result import SolveStatus
from repro.solver.solver import TRUE, Solver


# ----------------------------------------------------------------- codec
def test_frame_roundtrip():
    literals = (3, -7, 12)
    frame = encode_share_frame(1, 42, 2, literals)
    assert decode_share_frame(frame) == (1, 42, 2, literals)


def test_frame_roundtrip_unit():
    frame = encode_share_frame(0, 0, 1, (-5,))
    assert decode_share_frame(frame) == (0, 0, 1, (-5,))


@pytest.mark.parametrize(
    "mangle,reason",
    [
        (lambda f: f[:-2], "bad-frame"),  # literal-misaligned
        (lambda f: f[:8], "bad-frame"),  # truncated header
        (lambda f: b"", "bad-frame"),
        (lambda f: bytes([f[0] ^ 0xFF]) + f[1:], "bad-crc"),
        (lambda f: f[:-4] + bytes(4), "bad-crc"),  # literal zeroed, CRC stale
    ],
)
def test_frame_rejects_damage(mangle, reason):
    frame = encode_share_frame(0, 0, 2, (1, -2, 3))
    with pytest.raises(ShareFrameError) as excinfo:
        decode_share_frame(mangle(frame))
    assert excinfo.value.reason == reason


def test_frame_rejects_zero_literal():
    frame = encode_share_frame(0, 0, 2, (1, 0, 3))
    with pytest.raises(ShareFrameError) as excinfo:
        decode_share_frame(frame)
    assert excinfo.value.reason == "zero-literal"


def test_clause_key_and_tautology():
    assert clause_key([3, -1, 2]) == clause_key([2, 3, -1])
    assert is_tautology([1, -1, 5])
    assert is_tautology([2, 2])
    assert not is_tautology([1, 2, -3])


# ------------------------------------------------------------------- bus
def _bus(num_lanes=2, **kw):
    formula = planted_ksat(10, 30, 3, seed=1)
    kw.setdefault("rng", None)  # no spot checks unless a test asks
    bus = ClauseBus(formula, num_lanes, **kw)
    queues = [queue.Queue() for _ in range(num_lanes)]
    for lane, q in enumerate(queues):
        bus.attach(lane, attempt=0, import_queue=q)
    return bus, queues


def test_bus_fans_out_and_dedups():
    bus, queues = _bus()
    frame = encode_share_frame(0, 0, 2, (1, -2))
    bus.offer(0, 0, frame)
    dup = encode_share_frame(1, 0, 2, (-2, 1))  # same clause, other lane
    bus.offer(1, 0, dup)
    assert bus.pump() == 1  # duplicate suppressed, one frame forwarded
    assert queues[1].get_nowait() == (0, frame)
    assert queues[0].empty()
    assert bus.lanes[0].exported == 1
    assert bus.lanes[1].hard_rejections == 0  # duplicate is not evidence


@pytest.mark.parametrize(
    "frame,reason",
    [
        (b"\x00" * 10, "bad-frame"),
        (encode_share_frame(0, 0, 2, (1, 2))[:-1] + b"\xFF", "bad-crc"),
        (encode_share_frame(1, 0, 2, (1, 2)), "origin-mismatch"),
        (encode_share_frame(0, 5, 2, (1, 2)), "bad-sequence"),
        (encode_share_frame(0, 0, 9, (1, 2)), "lbd-filter"),
        (encode_share_frame(0, 0, 2, (1, 99)), "out-of-range"),
        (encode_share_frame(0, 0, 2, (1, -1)), "tautology"),
    ],
)
def test_bus_hard_rejections_attributed(frame, reason):
    events = []

    class Sink:
        def emit(self, event):
            events.append(event)

    bus, queues = _bus(trace=Sink())
    bus.offer(0, 0, frame)
    assert bus.lanes[0].hard_rejections == 1
    assert bus.lanes[1].hard_rejections == 0
    assert queues[1].empty()
    rejects = [e for e in events if e["type"] == "share_reject"]
    assert rejects and rejects[0]["lane"] == 0
    assert rejects[0]["reason"] == reason
    assert rejects[0]["severity"] == SEVERITY_HARD


def test_bus_stale_attempt_ignored():
    bus, _ = _bus()
    bus.offer(0, attempt=7, frame=b"garbage")  # stale post, no blame
    assert bus.lanes[0].hard_rejections == 0


def test_bus_quarantine_threshold_and_purge():
    bus, queues = _bus()
    # Stage an honest clause from lane 0 so purge has something to drop.
    bus.offer(0, 0, encode_share_frame(0, 0, 2, (1, 2)))
    for seq in range(DEFAULT_QUARANTINE_THRESHOLD):
        bus.offer(0, 0, encode_share_frame(0, seq + 1, 2, (1, 99)))
    assert bus.poisoned_lanes() == [0]
    state = bus.mark_quarantined(0)
    assert state.quarantined
    assert bus.pump() == 0  # staged clause purged fleet-wide
    assert queues[1].empty()
    # A quarantined lane is muted: further frames gather no new evidence.
    before = bus.lanes[0].hard_rejections
    bus.offer(0, 0, b"junk")
    assert bus.lanes[0].hard_rejections == before


def test_benign_notices_never_quarantine():
    bus, _ = _bus()
    for _ in range(10 * DEFAULT_QUARANTINE_THRESHOLD):
        bus.notice(
            1, 0, {"origin": 0, "reason": "rup-unproven", "severity": SEVERITY_BENIGN}
        )
    assert bus.lanes[0].benign_rejections > 0
    assert bus.poisoned_lanes() == []


def test_bus_spot_check_convicts_refuted_clause():
    # queens(4) does not imply the unit clause (1); a spot check must
    # refute it and convict the sharer — hard evidence.
    formula = queens_formula(4)
    bus = ClauseBus(formula, 2, rng=random.Random(3), verify_fraction=1.0)
    q0, q1 = queue.Queue(), queue.Queue()
    bus.attach(0, 0, q0)
    bus.attach(1, 0, q1)
    bus.offer(0, 0, encode_share_frame(0, 0, 1, (1,)))
    while bus._pending_checks:
        bus.pump()
    assert bus.spot_refuted == 1
    assert bus.lanes[0].hard_rejections == 1


# ----------------------------------------------------- worker import gate
class FakeShare:
    """Stands in for ShareClient: canned frames, recorded rejections."""

    def __init__(self, frames, export_max_lbd=3):
        self.frames = list(frames)
        self.rejects = []
        self.export_max_lbd = export_max_lbd

    def drain(self):
        out, self.frames = self.frames, []
        return out

    def reject(self, origin, reason, severity):
        self.rejects.append((origin, reason, severity))

    def export(self, literals, lbd):
        return False


def _gate_solver():
    formula = planted_ksat(12, 40, 3, seed=5)
    return Solver(formula, config=berkmin_config(seed=3))


def _snapshot(solver):
    return (
        len(solver.learned),
        len(solver.trail),
        solver.stats.shared_imported,
    )


@pytest.mark.parametrize(
    "frame,reason,severity",
    [
        (
            encode_share_frame(1, 0, 2, (1, 2))[:-1] + b"\x99",
            "bad-crc",
            SEVERITY_HARD,
        ),
        (encode_share_frame(1, 0, 2, (1, 999)), "out-of-range", SEVERITY_HARD),
        (encode_share_frame(1, 0, 2, (1, -1)), "tautology", SEVERITY_HARD),
    ],
)
def test_import_gate_rejects_without_mutation(frame, reason, severity):
    solver = _gate_solver()
    share = FakeShare([(1, frame)])
    solver.share = share
    before = _snapshot(solver)
    attached = solver._import_shared()
    assert attached == 0
    assert _snapshot(solver) == before
    assert share.rejects == [(1, reason, severity)]
    assert solver.stats.shared_rejected == 1


def test_import_gate_attaches_rup_unit():
    # (1 2) and (1 -2) make the unit clause (1) RUP: asserting -1 forces
    # both 2 and -2.  The import must attach it at level 0 and propagate.
    from repro.cnf.formula import CnfFormula

    formula = CnfFormula(num_variables=3, clauses=[[1, 2], [1, -2], [2, 3]])
    solver = Solver(formula, config=berkmin_config(seed=3))
    share = FakeShare([(1, encode_share_frame(1, 0, 1, (1,)))])
    solver.share = share
    attached = solver._import_shared()
    assert attached == 1
    assert solver.stats.shared_imported == 1
    assert share.rejects == []
    assert solver.value_of(1) == TRUE


def test_import_gate_arena_eliminated_variable_is_benign():
    solver = _gate_solver()
    solver._eliminated_mark[2] = True
    share = FakeShare([(1, encode_share_frame(1, 0, 2, (2, 3)))])
    solver.share = share
    before = _snapshot(solver)
    assert solver._import_shared() == 0
    assert _snapshot(solver) == before
    assert share.rejects == [(1, "eliminated-variable", SEVERITY_BENIGN)]


def test_import_gate_parks_unproven_then_gives_up():
    # queens(4) implies nothing about (1 2): the RUP probe stays
    # inconclusive, so the clause parks for _PARKING_TTL rounds and is
    # then rejected benignly — never hard.
    solver = Solver(queens_formula(4), config=berkmin_config(seed=3))
    share = FakeShare([(1, encode_share_frame(1, 0, 2, (1, 2)))])
    solver.share = share
    for round_index in range(Solver._PARKING_TTL - 1):
        assert solver._import_shared() == 0
        assert share.rejects == [], round_index
    assert solver._import_shared() == 0
    assert share.rejects == [(1, "rup-unproven", SEVERITY_BENIGN)]
    assert solver.stats.shared_imported == 0


# ------------------------------------------------------------ adaptation
def test_mutate_config_tries_the_branching_lever_first():
    config = config_by_name("berkmin", seed=11)
    mutated, label = mutate_config(config, 0)
    assert label == "branching=vsids"
    assert mutated.decision_strategy == "vsids"
    assert mutated.seed != config.seed
    assert mutated.name.startswith("berkmin+")


def test_mutate_config_walks_past_no_op_mutations():
    # A lane already on VSIDS branching skips branching=vsids and lands
    # on the next entry that actually changes the config.
    config = config_by_name("chaff", seed=11)
    mutated, label = mutate_config(config, 0)
    assert label == "branching=global"
    assert mutated.decision_strategy == "global"


def test_adaptive_manager_preempts_clear_loser_only():
    manager = AdaptiveLaneManager(
        interval_seconds=0.0, warmup_seconds=0.0, min_samples=2
    )
    manager.record_launch(0, now=0.0)
    manager.record_launch(1, now=0.0)
    for _ in range(4):
        manager.observe(0, {"props_per_sec": 50_000, "conflicts_per_sec": 400})
        manager.observe(1, {"props_per_sec": 40_000, "conflicts_per_sec": 300})
    # Close race: nobody is preempted.
    assert manager.pick_victim(5.0, [0, 1]) is None
    for _ in range(4):
        manager.observe(1, {"props_per_sec": 10, "conflicts_per_sec": 0})
    victim = manager.pick_victim(10.0, [0, 1])
    assert victim == 1
    mutated, label = manager.mutate(1, config_by_name("chaff", seed=2))
    assert manager.adaptations[1] == 1
    assert label


def test_adaptive_manager_respects_warmup_and_budget():
    manager = AdaptiveLaneManager(
        interval_seconds=0.0, warmup_seconds=100.0, min_samples=1
    )
    manager.record_launch(0, now=0.0)
    manager.record_launch(1, now=0.0)
    manager.observe(0, {"props_per_sec": 50_000, "conflicts_per_sec": 400})
    manager.observe(1, {"props_per_sec": 1, "conflicts_per_sec": 0})
    # Both lanes still inside warmup: benefit of the doubt.
    assert manager.pick_victim(1.0, [0, 1]) is None


# ----------------------------------------------------- end-to-end fleets
@pytest.mark.fault_injection
def test_poisoned_lane_is_quarantined_and_answer_stays_correct():
    """The poison soak, small: lane 0 exports corrupted/unsound clauses
    throughout, yet the fleet's answer is correct, verified, and the
    poisoner is quarantined once the hard evidence crosses the
    threshold."""
    formula = pigeonhole_formula(6)
    portfolio = PortfolioSolver(
        [config_by_name("berkmin", seed=1), config_by_name("chaff", seed=2)],
        jobs=2,
        retry=1,
        verification="full",
        fault_plan=FaultPlan.single(FAULT_CORRUPT_SHARE, worker=0),
        share=True,
    )
    result = portfolio.solve(formula, max_seconds=60.0)
    assert result.status is SolveStatus.UNSAT
    assert result.verified == "proof"
    assert result.stats.lane_restarts >= 1  # the poisoner was quarantined


@pytest.mark.fault_injection
def test_sharing_fleet_honest_lanes_never_quarantined():
    formula = pigeonhole_formula(6)
    portfolio = PortfolioSolver(
        [config_by_name("berkmin", seed=1), config_by_name("chaff", seed=2)],
        jobs=2,
        verification="full",
        share=True,
    )
    result = portfolio.solve(formula, max_seconds=60.0)
    assert result.status is SolveStatus.UNSAT
    assert result.verified == "proof"
    assert result.stats.lane_restarts == 0
