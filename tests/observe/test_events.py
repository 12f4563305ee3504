"""TraceEvent serialization and filtering."""

import json

import pytest

from repro.observe import (EVENT_KINDS, MODE_NAMES, TraceEvent, filter_events,
                           serialize_events)


class TestTraceEvent:
    def test_json_round_trip(self):
        e = TraceEvent(42, "issue", 1, 0x20, 137, "load:12")
        assert TraceEvent.from_json(e.to_json()) == e

    def test_to_json_is_valid_json(self):
        e = TraceEvent(0, "mode", info='IDLE->DRAIN "quoted"')
        d = json.loads(e.to_json())
        assert d == {"cycle": 0, "kind": "mode", "thread": -1, "pc": -1,
                     "trace_idx": -1, "info": 'IDLE->DRAIN "quoted"'}

    def test_defaults(self):
        e = TraceEvent(7, "commit")
        assert (e.thread, e.pc, e.trace_idx, e.info) == (-1, -1, -1, "")

    def test_canonical_bytes_stable(self):
        """The byte format is pinned: key order, no spaces."""
        assert TraceEvent(1, "fetch", 0, 2, 3, "x").to_json() == \
            '{"cycle":1,"kind":"fetch","thread":0,"pc":2,"trace_idx":3,' \
            '"info":"x"}'

    def test_kind_and_mode_vocabulary(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS)) == 10
        assert MODE_NAMES == ("IDLE", "DRAIN", "COPY", "ACTIVE")


class TestSerializeEvents:
    def test_jsonl_with_trailing_newline(self):
        events = [TraceEvent(i, "commit") for i in range(3)]
        text = serialize_events(events)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 3
        assert [TraceEvent.from_json(ln) for ln in lines] == events

    def test_empty_stream(self):
        assert serialize_events([]) == ""


class TestFilterEvents:
    @pytest.fixture
    def stream(self):
        return [TraceEvent(0, "fetch", 0, 1, 0),
                TraceEvent(5, "issue", 0, 1, 0),
                TraceEvent(5, "issue", 1, 2, 3),
                TraceEvent(9, "commit", 0, 1, 0),
                TraceEvent(12, "mode")]

    def test_no_filters_keeps_all(self, stream):
        assert filter_events(stream) == stream

    def test_kind_filter(self, stream):
        out = filter_events(stream, kinds=["issue"])
        assert len(out) == 2 and all(e.kind == "issue" for e in out)

    def test_cycle_range_inclusive(self, stream):
        out = filter_events(stream, cycle_range=(5, 9))
        assert [e.cycle for e in out] == [5, 5, 9]

    def test_thread_filter(self, stream):
        out = filter_events(stream, thread=1)
        assert out == [TraceEvent(5, "issue", 1, 2, 3)]

    def test_filters_compose(self, stream):
        out = filter_events(stream, kinds=["issue", "commit"],
                            cycle_range=(0, 9), thread=0)
        assert [e.kind for e in out] == ["issue", "commit"]
