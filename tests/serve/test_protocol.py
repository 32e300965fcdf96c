"""Wire protocol: framing, typed errors, type-directed JSON decoding."""

import json

import pytest

from repro.errors import EvaluationError
from repro.model.types import parse_type
from repro.model.values import Atom, SetVal, Tup
from repro.serve.protocol import (
    OPS,
    ProtocolError,
    database_from_spec,
    decode_message,
    encode_message,
    error_response,
    int_field,
    ok_response,
    request_op,
    timeout_field,
    value_from_json,
)
from repro.serve.service import AdmissionRejected, RequestTimeout


class TestFraming:
    def test_roundtrip(self):
        message = {"op": "QUERY", "db": "main", "query": "{ 1 }"}
        wire = encode_message(message)
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1
        assert decode_message(wire) == message

    def test_keys_are_sorted_for_determinism(self):
        assert encode_message({"b": 1, "a": 2}) == b'{"a": 2, "b": 1}\n'

    @pytest.mark.parametrize(
        "line",
        [b"", b"   ", b"not json", b"[1, 2]", b'"just a string"', b"\xff\xfe"],
    )
    def test_malformed_lines_are_typed_errors(self, line):
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_ops_and_case_insensitivity(self):
        for op in OPS:
            assert request_op({"op": op.lower()}) == op
        with pytest.raises(ProtocolError):
            request_op({"op": "DELETE"})
        with pytest.raises(ProtocolError):
            request_op({})


class TestWireFields:
    def test_integer_fields(self):
        assert int_field({}, "priority", 0) == 0
        assert int_field({"priority": -3}, "priority", 0) == -3
        for bad in ("x", None, 1.5, True, [1]):
            with pytest.raises(ProtocolError):
                int_field({"priority": bad}, "priority", 0)

    def test_timeout_field(self):
        assert timeout_field({}) == "default"
        assert timeout_field({"timeout": None}) is None  # no deadline
        assert timeout_field({"timeout": 2}) == 2
        assert timeout_field({"timeout": 0.5}) == 0.5
        for bad in ("abc", "default", [1], False, {}):
            with pytest.raises(ProtocolError):
                timeout_field({"timeout": bad})


class TestErrorResponses:
    def test_serve_errors_keep_code_and_retryable(self):
        response = error_response("QUERY", AdmissionRejected(4))
        assert not response["ok"]
        assert response["error"]["type"] == "rejected"
        assert response["error"]["retryable"] is True

        response = error_response("QUERY", RequestTimeout(1.5, "queue"))
        assert response["error"]["type"] == "timeout"
        assert response["error"]["retryable"] is False

    def test_repro_errors_map_to_error(self):
        response = error_response("QUERY", EvaluationError("boom"))
        assert response["error"]["type"] == "error"
        assert response["error"]["retryable"] is False

    def test_everything_else_is_internal(self):
        response = error_response("QUERY", RuntimeError("boom"))
        assert response["error"]["type"] == "internal"

    def test_responses_are_json_lines(self):
        ok = ok_response("PING", version=1)
        assert ok["ok"] is True
        json.dumps(ok)
        json.dumps(error_response("PING", RuntimeError("x")))


class TestValueFromJson:
    def test_array_is_tuple_under_tuple_type(self):
        value = value_from_json(["a", "b"], parse_type("[U, U]"))
        assert value == Tup([Atom("a"), Atom("b")])

    def test_array_is_set_under_set_type(self):
        value = value_from_json(["b", "a", "a"], parse_type("{U}"))
        assert value == SetVal([Atom("a"), Atom("b")])

    def test_nesting_follows_the_type(self):
        value = value_from_json([["a", "b"], []], parse_type("{{U}}"))
        assert value == SetVal([SetVal([Atom("a"), Atom("b")]), SetVal([])])

    def test_arity_mismatch(self):
        with pytest.raises(ProtocolError):
            value_from_json(["a"], parse_type("[U, U]"))

    def test_atoms_reject_non_scalars(self):
        with pytest.raises(ProtocolError):
            value_from_json(["a"], parse_type("U"))
        with pytest.raises(ProtocolError):
            value_from_json(True, parse_type("U"))
        assert value_from_json(3, parse_type("U")) == Atom(3)


class TestDatabaseFromSpec:
    SPEC = {
        "schema": {"R": "[U, U]", "S": "U", "N": "{U}"},
        "instances": {
            "R": [["a", "b"], ["b", "c"]],
            "S": ["a", "c"],
            "N": [["a", "b"], ["c"]],
        },
    }

    def test_builds_typed_instances(self):
        database = database_from_spec(self.SPEC)
        assert database["R"] == SetVal(
            [Tup([Atom("a"), Atom("b")]), Tup([Atom("b"), Atom("c")])]
        )
        assert database["N"] == SetVal(
            [SetVal([Atom("a"), Atom("b")]), SetVal([Atom("c")])]
        )

    def test_missing_predicates_default_empty(self):
        spec = {"schema": {"R": "U"}}
        assert database_from_spec(spec)["R"] == SetVal([])

    @pytest.mark.parametrize(
        "spec",
        [
            "not a dict",
            {},
            {"schema": {}},
            {"schema": {"R": "]["}},
            {"schema": {"R": "U"}, "instances": "nope"},
            {"schema": {"R": "U"}, "instances": {"Zzz": []}},
            {"schema": {"R": "U"}, "instances": {"R": "not rows"}},
        ],
    )
    def test_bad_specs_are_protocol_errors(self, spec):
        with pytest.raises(ProtocolError):
            database_from_spec(spec)
