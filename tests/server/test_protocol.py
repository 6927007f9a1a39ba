"""Wire protocol: request parsing and reply construction."""

import json

import pytest

from repro.cnf.literals import MAX_VARIABLES
from repro.server.protocol import (
    ProtocolError,
    encode_reply,
    error_reply,
    parse_request,
    refusal_reply,
    result_reply,
)
from repro.solver.result import AttemptRecord, SolveResult, SolveStatus


def test_parse_solve_request_roundtrips_all_fields():
    line = json.dumps(
        {
            "op": "solve",
            "id": 7,
            "clauses": [[1, 2], [-1, 2]],
            "assumptions": [2],
            "timeout": 5.0,
            "max_conflicts": 1000,
            "config": "berkmin",
        }
    )
    request = parse_request(line)
    assert request.op == "solve"
    assert request.request_id == 7
    assert request.clauses == [[1, 2], [-1, 2]]
    assert request.assumptions == (2,)
    assert request.timeout == 5.0
    assert request.max_conflicts == 1000
    assert request.config == "berkmin"


def test_parse_request_accepts_bytes_lines():
    request = parse_request(b'{"op": "ping", "id": "a"}\n')
    assert request.op == "ping" and request.request_id == "a"


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        "[1, 2]",  # not an object
        '{"op": "frobnicate", "id": 1}',
        '{"op": "solve", "id": [1]}',  # non-scalar id
        '{"op": "solve", "id": 1}',  # missing clauses
        '{"op": "solve", "id": 1, "clauses": [[0]]}',  # zero literal
        '{"op": "solve", "id": 1, "clauses": [[true]]}',  # bool literal
        '{"op": "solve", "id": 1, "clauses": [], "timeout": -1}',
        '{"op": "solve", "id": 1, "clauses": [], "timeout": true}',
        '{"op": "solve", "id": 1, "clauses": [], "max_conflicts": 0}',
        '{"op": "solve", "id": 1, "clauses": [], "config": 3}',
        '{"op": "solve", "id": 1, "clauses": [], "surprise": 1}',  # unknown field
    ],
)
def test_parse_request_rejects_malformed_lines(payload):
    with pytest.raises(ProtocolError):
        parse_request(payload)


def test_protocol_errors_never_echo_payload():
    with pytest.raises(ProtocolError) as excinfo:
        parse_request('{"op": "solve", "id": 1, "clauses": [["secret-literal"]]}')
    assert "secret-literal" not in str(excinfo.value)


@pytest.mark.parametrize("field", ["clauses", "assumptions"])
def test_literals_past_the_variable_bound_are_rejected(field):
    literal = -(MAX_VARIABLES + 1)
    value = [[1, literal]] if field == "clauses" else [literal]
    line = json.dumps({"op": "solve", "id": 1, "clauses": [[1]], field: value})
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(line)
    assert str(MAX_VARIABLES + 1) not in str(excinfo.value)
    assert f"literals must name variables up to {MAX_VARIABLES}" in str(excinfo.value)
    at_the_bound = json.dumps({"op": "solve", "id": 1, "clauses": [[1, -MAX_VARIABLES]]})
    assert parse_request(at_the_bound).clauses == [[1, -MAX_VARIABLES]]


def test_result_reply_sat_carries_sorted_dimacs_model():
    result = SolveResult(
        status=SolveStatus.SAT, model={2: False, 1: True}, verified="model"
    )
    reply = result_reply(5, result, cached="exact")
    assert reply["kind"] == "result"
    assert reply["status"] == "SAT"
    assert reply["model"] == [-2, 1]
    assert reply["verified"] == "model"
    assert reply["cached"] == "exact"
    assert "limit_reason" not in reply


def test_result_reply_unknown_is_truthful_about_degradation():
    failed = AttemptRecord(
        attempt=0, config_name="berkmin", seed=1, outcome="worker crashed"
    )
    result = SolveResult(
        status=SolveStatus.UNKNOWN,
        limit_reason="worker crashed",
        attempts=[failed],
    )
    reply = result_reply(1, result)
    assert reply["status"] == "UNKNOWN"
    assert reply["limit_reason"] == "worker crashed"
    assert reply["degraded"] == "worker crashed after 1 attempt"


def test_refusal_reply_validates_kind():
    assert refusal_reply(1, "busy", "queue full")["kind"] == "busy"
    assert refusal_reply(1, "deadline", "time budget")["kind"] == "deadline"
    with pytest.raises(ValueError):
        refusal_reply(1, "result", "nope")


def test_encode_reply_is_one_json_line():
    blob = encode_reply(error_reply(None, "bad"))
    assert blob.endswith(b"\n") and blob.count(b"\n") == 1
    assert json.loads(blob)["kind"] == "error"
