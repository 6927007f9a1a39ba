"""Trace bus: sinks, schema validation, and the solver's event stream."""

import json

import pytest

from repro.generators.pigeonhole import pigeonhole_formula
from repro.observability import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    CallbackSink,
    JsonlTraceSink,
    MultiSink,
    RingBufferSink,
    TraceFormatError,
    read_trace,
    require_valid_event,
    validate_event,
)
from repro.solver.config import config_by_name
from repro.solver.result import SolveStatus
from repro.solver.solver import Solver


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def test_every_schema_type_has_type_in_required_fields():
    for kind, (required, optional) in EVENT_SCHEMA.items():
        assert "type" in required
        assert not (required & optional), kind


def test_validate_event_accepts_a_minimal_valid_event():
    event = {"type": "solve_end", "conflicts": 3, "status": "UNSAT"}
    assert validate_event(event) is None
    assert require_valid_event(event) is event


def test_validate_event_rejects_unknown_type_missing_and_extra_fields():
    assert "unknown event type" in validate_event({"type": "nope"})
    assert "missing field" in validate_event({"type": "solve_end", "conflicts": 1})
    assert "unknown field" in validate_event(
        {"type": "solve_end", "conflicts": 1, "status": "SAT", "bogus": 1}
    )
    assert "must be an int" in validate_event(
        {"type": "solve_end", "conflicts": 1.5, "status": "SAT"}
    )
    assert "not a dict" in validate_event([1, 2])


def test_validate_event_checks_enumerated_fields():
    decision = {
        "type": "decision",
        "conflicts": 0,
        "decisions": 1,
        "level": 1,
        "literal": 4,
        "source": "psychic",
        "skin_distance": None,
    }
    assert "source" in validate_event(decision)
    checkpoint = {"type": "checkpoint", "action": "sideways", "conflicts": 0}
    assert "action" in validate_event(checkpoint)
    with pytest.raises(TraceFormatError):
        require_valid_event(checkpoint)


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_ring_buffer_sink_keeps_only_the_newest_events():
    sink = RingBufferSink(capacity=3)
    for index in range(5):
        sink.emit({"type": "solve_end", "conflicts": index, "status": "SAT"})
    assert len(sink) == 3
    assert [event["conflicts"] for event in sink.events] == [2, 3, 4]
    sink.clear()
    assert len(sink) == 0
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_callback_and_multi_sink_fan_out(tmp_path):
    seen = []
    ring = RingBufferSink()
    fan = MultiSink(CallbackSink(seen.append), ring)
    event = {"type": "solve_end", "conflicts": 1, "status": "UNSAT"}
    fan.emit(event)
    fan.close()
    assert seen == [event]
    assert ring.events == [event]


def test_jsonl_sink_round_trips_through_read_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = [
        {"type": "solve_start", "conflicts": 0, "decisions": 0, "config": "berkmin",
         "variables": 3, "clauses": 5},
        {"type": "solve_end", "conflicts": 7, "status": "UNSAT"},
    ]
    with JsonlTraceSink(path) as sink:
        for event in events:
            sink.emit(event)
        assert sink.events_written == 2
    assert list(read_trace(path)) == events


def test_jsonl_sink_is_lazy_and_pickles_to_append_mode(tmp_path):
    import pickle

    path = tmp_path / "lazy.jsonl"
    sink = JsonlTraceSink(path)
    assert not path.exists()  # no event, no file
    sink.emit({"type": "solve_end", "conflicts": 1, "status": "SAT"})
    sink.close()
    copy = pickle.loads(pickle.dumps(sink))
    copy.emit({"type": "solve_end", "conflicts": 2, "status": "SAT"})
    copy.close()
    # The unpickled copy appended instead of clobbering.
    assert [event["conflicts"] for event in read_trace(path)] == [1, 2]


def test_read_trace_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type":"solve_end","conflicts":1,"status":"SAT"}\nnot json\n')
    with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
        list(read_trace(path))
    path.write_text('{"type":"mystery"}\n')
    with pytest.raises(TraceFormatError, match="unknown event type"):
        list(read_trace(path))


# ----------------------------------------------------------------------
# The solver's event stream
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hole5_trace():
    sink = RingBufferSink(capacity=100_000)
    config = config_by_name("berkmin", trace=sink)
    result = Solver(pigeonhole_formula(5), config).solve()
    assert result.status is SolveStatus.UNSAT
    return sink.events, result


def test_solver_emits_only_schema_valid_events(hole5_trace):
    events, _ = hole5_trace
    assert events, "tracing produced no events"
    for event in events:
        assert validate_event(event) is None, event
    assert {event["type"] for event in events} >= {
        "solve_start", "decision", "conflict", "solve_end",
    }
    assert set(EVENT_TYPES) >= {event["type"] for event in events}


def test_solver_trace_brackets_the_solve(hole5_trace):
    events, result = hole5_trace
    assert events[0]["type"] == "solve_start"
    assert events[0]["config"] == "berkmin"
    assert events[-1] == {
        "type": "solve_end",
        "conflicts": result.stats.conflicts,
        "status": "UNSAT",
    }


def test_solver_trace_counts_match_stats(hole5_trace):
    events, result = hole5_trace
    decisions = [event for event in events if event["type"] == "decision"]
    conflicts = [event for event in events if event["type"] == "conflict"]
    assert len(decisions) == result.stats.decisions
    # Level-0 conflicts (the final UNSAT step) learn nothing and emit no
    # conflict event, so the event count may trail the counter slightly.
    assert 0 <= result.stats.conflicts - len(conflicts) <= 1
    top = [event for event in decisions if event["source"] == "top_clause"]
    assert len(top) == result.stats.top_clause_decisions
    for event in top:
        assert event["skin_distance"] >= 0
    for event in decisions:
        if event["source"] != "top_clause":
            assert event["skin_distance"] is None


def test_conflicts_counter_is_monotone_across_the_trace(hole5_trace):
    events, _ = hole5_trace
    counters = [
        event["conflicts"] for event in events if "conflicts" in event
    ]
    assert counters == sorted(counters)


def test_trace_disabled_leaves_no_sink_on_the_solver():
    solver = Solver(pigeonhole_formula(3), config_by_name("berkmin"))
    assert solver.trace is None
    assert solver.solve().status is SolveStatus.UNSAT


def test_restart_and_reduce_events_fire_on_a_hard_instance():
    sink = RingBufferSink(capacity=200_000)
    config = config_by_name("berkmin", trace=sink, restart_interval=64)
    Solver(pigeonhole_formula(6), config).solve()
    kinds = {event["type"] for event in sink.events}
    assert "restart" in kinds
    assert "reduce" in kinds
    for event in sink.events:
        if event["type"] == "reduce":
            assert event["kept"] + event["dropped"] == event["learned_before"]
            assert (
                event["young_kept"] + event["young_dropped"]
                + event["old_kept"] + event["old_dropped"]
            ) == event["learned_before"]
        if event["type"] == "restart":
            assert event["restarts"] >= 1


def test_trace_events_are_json_serializable(hole5_trace):
    events, _ = hole5_trace
    for event in events[:200]:
        json.loads(json.dumps(event))


# ----------------------------------------------------------------------
# Arena inprocessing events
# ----------------------------------------------------------------------
def test_arena_inprocess_events_are_schema_valid_and_counted():
    sink = RingBufferSink(8192)
    config = config_by_name(
        "berkmin", restart_interval=20, inprocess_interval=1, trace=sink
    )
    solver = Solver(pigeonhole_formula(6), config=config)
    result = solver.solve()
    assert result.status is SolveStatus.UNSAT
    events = [e for e in sink.events if e["type"] == "inprocess"]
    assert len(events) == solver.stats.inprocess_passes > 0
    for event in events:
        assert require_valid_event(event) is event
        assert event["eliminated"] >= 0
        assert event["freed_words"] >= 0
        assert event["wall_ms"] >= 0
    assert sum(e["eliminated"] for e in events) == solver.stats.eliminated_variables
