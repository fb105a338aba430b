"""The telemetry layer: histograms, the event log, and validators.

Property suites back the two structural claims the observability
design leans on (docs/OBSERVABILITY.md):

* **histograms** — fixed log2 boundaries make merge a bucket-wise
  addition (associative, order-independent), and snapshots round-trip
  exactly through the ``repro.metrics/1`` registry validator;
* **event ring** — overflow drops the *oldest* records and counts
  every drop exactly (``events_dropped`` in daemon status is this
  number).
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    EventLog,
    Histogram,
    MetricsRegistry,
    bind_request,
    current_request,
    emit_event,
    new_request_id,
    read_event_log,
    validate_event,
    validate_registry_snapshot,
    validate_telemetry,
)
from repro.obs.metrics import bucket_bounds, bucket_key

#: Non-negative samples in the ranges the daemon observes: latencies
#: (fractional seconds), retraction counts, step totals.
samples = st.one_of(
    st.floats(
        min_value=0.0,
        max_value=1e9,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.integers(min_value=0, max_value=10**9),
)


def hist_of(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


# -- bucket boundaries ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(value=samples)
def test_bucket_key_matches_bounds(value):
    """Every sample lands in the bucket whose interval contains it —
    boundaries are fixed, never data-dependent."""
    key = bucket_key(value)
    lo, hi = bucket_bounds(key)
    if key == "zero":
        assert float(value) <= 0.0 == hi
    else:
        assert lo <= float(value) < hi


@settings(max_examples=100, deadline=None)
@given(value=st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
def test_bucket_boundary_stability(value):
    """The key is a pure function of the value: observing more data
    (or the same value again) never re-buckets anything."""
    assert bucket_key(value) == bucket_key(value)
    hist = hist_of([value, value, value])
    assert hist.buckets == {bucket_key(value): 3}


def test_bucket_edges_are_half_open():
    # 2**(e-1) <= v < 2**e: each power of two opens its own bucket
    # (frexp mantissas live in [0.5, 1)).
    assert bucket_key(1.0) == "1"
    assert bucket_key(1.999) == "1"
    assert bucket_key(2.0) == "2"
    assert bucket_key(3.999) == "2"
    assert bucket_key(0.5) == "0"
    assert bucket_key(0) == "zero"
    assert bucket_key(-3) == "zero"


# -- merge algebra -------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(samples, max_size=30),
    b=st.lists(samples, max_size=30),
    c=st.lists(samples, max_size=30),
)
def test_merge_associative_and_equals_pooled(a, b, c):
    """(a + b) + c == a + (b + c) == hist(a ++ b ++ c), exactly."""
    left = hist_of(a)
    left.merge(hist_of(b))
    left.merge(hist_of(c))

    bc = hist_of(b)
    bc.merge(hist_of(c))
    right = hist_of(a)
    right.merge(bc)

    pooled = hist_of(a + b + c)
    for one, other in ((left, right), (left, pooled)):
        assert one.count == other.count
        assert one.buckets == other.buckets
        assert one.min == other.min
        assert one.max == other.max
        assert one.sum == pytest.approx(other.sum)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(samples, max_size=40))
def test_merge_into_empty_is_identity(values):
    hist = Histogram("empty")
    hist.merge(hist_of(values))
    original = hist_of(values)
    assert hist.count == original.count
    assert hist.buckets == original.buckets
    assert hist.min == original.min and hist.max == original.max


@settings(max_examples=60, deadline=None)
@given(values=st.lists(samples, min_size=1, max_size=40))
def test_quantile_is_an_upper_bound(values):
    hist = hist_of(values)
    values = [float(v) for v in values]
    for q in (0.5, 0.95, 1.0):
        bound = hist.quantile(q)
        rank = max(0, min(len(values) - 1, int(q * len(values)) - 1))
        assert bound >= sorted(values)[rank]
    assert hist.quantile(0.0) is not None
    assert Histogram("empty").quantile(0.5) is None


# -- snapshot round-trip -------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(values=st.lists(samples, max_size=40))
def test_snapshot_round_trip(values):
    hist = hist_of(values)
    restored = Histogram.from_snapshot("h", hist.snapshot())
    assert restored.count == hist.count
    assert restored.buckets == hist.buckets
    assert restored.min == hist.min and restored.max == hist.max
    assert restored.sum == hist.sum
    assert restored.snapshot() == hist.snapshot()


@settings(max_examples=50, deadline=None)
@given(values=st.lists(samples, max_size=30))
def test_snapshot_validates_in_registry(values):
    """The registry snapshot with histograms passes the same
    structural validator that guards ``repro.metrics/1``."""
    registry = MetricsRegistry()
    registry.counter("daemon.requests").inc()
    registry.timer("verb.define").observe(0.01)
    hist = registry.histogram("daemon.latency.define")
    for value in values:
        hist.observe(value)
    validate_registry_snapshot(registry.snapshot())


def test_histogram_section_only_when_present():
    """Pre-telemetry registries snapshot byte-identically: the
    ``histograms`` key appears only once a histogram exists."""
    registry = MetricsRegistry()
    registry.counter("x").inc()
    assert "histograms" not in registry.snapshot()
    registry.histogram("h").observe(1)
    assert "histograms" in registry.snapshot()


def test_registry_validator_rejects_bad_buckets():
    registry = MetricsRegistry()
    registry.histogram("h").observe(3)
    snapshot = registry.snapshot()
    snapshot["histograms"]["h"]["buckets"]["nonsense"] = 1
    with pytest.raises(ValueError, match="bucket"):
        validate_registry_snapshot(snapshot)
    snapshot = registry.snapshot()
    snapshot["histograms"]["h"]["buckets"]["2"] = 5  # sum != count
    with pytest.raises(ValueError, match="count"):
        validate_registry_snapshot(snapshot)


# -- event ring ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=32),
    emissions=st.integers(min_value=0, max_value=100),
)
def test_ring_overflow_drops_oldest_exactly(capacity, emissions):
    log = EventLog(capacity=capacity)
    for i in range(emissions):
        log.emit("delta", component="delta", index=i)
    assert log.emitted == emissions
    assert len(log) == min(capacity, emissions)
    assert log.dropped == max(0, emissions - capacity)
    kept = log.events()
    # The survivors are exactly the newest `capacity` events, in
    # emission order with contiguous seq values.
    expected = list(range(max(0, emissions - capacity), emissions))
    assert [e["seq"] for e in kept] == expected
    assert [e["index"] for e in kept] == expected


def test_event_shape_and_filters():
    log = EventLog()
    rid = new_request_id()
    log.emit("request", request_id=rid, component="server", verb="lint")
    log.emit("delta", request_id=rid, component="delta", op="define")
    log.emit("flow", request_id="other", component="flow", steps=7)
    for event in log.events():
        validate_event(event)
    assert len(log.events(kind="delta")) == 1
    assert len(log.events(request_id=rid)) == 2
    assert len(log.events(grep="steps")) == 1
    assert [e["kind"] for e in log.events(limit=1)] == ["flow"]


def test_listeners_see_every_event():
    log = EventLog()
    seen = []
    log.add_listener(seen.append)
    log.emit("job", component="serve")
    log.remove_listener(seen.append)
    log.emit("job", component="serve")
    assert [e["seq"] for e in seen] == [0]


# -- request binding -----------------------------------------------------------


def test_emit_event_noop_when_unbound():
    assert current_request() is None
    assert emit_event("delta", component="delta") is None


def test_bind_request_threads_the_log():
    log = EventLog()
    with bind_request(log=log) as ctx:
        emit_event("flow", component="flow", steps=3)
        assert current_request() is ctx
    assert current_request() is None
    events = log.events()
    assert len(events) == 1
    assert events[0]["request_id"] == ctx.request_id
    assert events[0]["steps"] == 3


def test_bind_request_id_override():
    log = EventLog()
    with bind_request("fixed-id-0001", log=log):
        emit_event("delta", component="delta")
        emit_event("delta", component="delta", request_id="other-id")
    ids = [e["request_id"] for e in log.events()]
    assert ids == ["fixed-id-0001", "other-id"]


# -- sink ----------------------------------------------------------------------


def test_sink_rotation_and_read_back(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(sink_path=path, sink_bytes=2048)
    for i in range(64):
        log.emit("delta", component="delta", index=i, pad="x" * 64)
        log.flush()
    log.close()
    assert os.path.exists(path)
    assert os.path.exists(path + ".1")
    assert os.path.getsize(path) <= 2048
    tail = read_event_log(path)
    assert tail and tail[-1]["index"] == 63
    for event in tail:
        validate_event(event)


def test_sink_flushes_per_request_not_per_event(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = EventLog(sink_path=path)
    log.emit("request", component="server")
    # Not flushed yet: emission only queues on the sink.
    assert read_event_log(path) == []
    log.flush()
    assert [e["kind"] for e in read_event_log(path)] == ["request"]
    log.close()


def test_whole_run_sink_streams_in_bounded_batches(tmp_path):
    from repro.obs.events import SINK_PENDING_LIMIT

    whole = str(tmp_path / "trace.jsonl")
    rotating = str(tmp_path / "events.jsonl")
    logs = (
        EventLog(sink_path=whole, sink_bytes=None),
        EventLog(sink_path=rotating),
    )
    for log in logs:
        for _ in range(SINK_PENDING_LIMIT):
            log.emit("edge", phase="close")
    # Nothing flushes a whole-run trace until close, so it writes out
    # once the queue is full; a rotating sink waits for its flush.
    assert len(read_event_log(whole)) == SINK_PENDING_LIMIT
    assert read_event_log(rotating) == []
    for log in logs:
        log.close()
    assert len(read_event_log(rotating)) == SINK_PENDING_LIMIT


# -- validators ----------------------------------------------------------------


def test_validate_event_rejects_malformed():
    good = EventLog().emit("delta", component="delta")
    for mutation in (
        {"seq": "1"},
        {"seq": -1},
        {"ts": "now"},
        {"mono": None},
        {"kind": ""},
        {"kind": 7},
        {"request_id": ""},
        {"component": 4},
    ):
        bad = dict(good)
        bad.update(mutation)
        with pytest.raises(ValueError):
            validate_event(bad)
    with pytest.raises(ValueError):
        validate_event([])


def test_validate_telemetry_full_document():
    log = EventLog()
    log.emit("request", request_id="r1", component="server", verb="lint")
    registry = MetricsRegistry()
    registry.histogram("daemon.latency.lint").observe(0.003)
    document = {
        "schema": "repro.events/1",
        "generated_ts": 1.0,
        "uptime_s": 2.5,
        "events_emitted": log.emitted,
        "events_dropped": log.dropped,
        "events": log.events(),
        "metrics": registry.snapshot(),
        "slow": [{"request_id": "r1", "verb": "lint", "seconds": 1.2}],
        "projects": {"warm": [], "cold": [], "capacity": 8},
    }
    assert validate_telemetry(document) is document
    for mutation in (
        {"schema": "repro.events/2"},
        {"uptime_s": -1},
        {"events_emitted": "many"},
        {"events": {}},
        {"slow": [{"verb": "lint"}]},
        {"projects": []},
    ):
        bad = dict(document)
        bad.update(mutation)
        with pytest.raises(ValueError):
            validate_telemetry(bad)


def test_event_log_round_trips_lines():
    log = EventLog()
    log.emit("flow", request_id="r", component="flow", steps=2)
    lines = [json.dumps(e, sort_keys=True) for e in log.events()]
    assert read_event_log(lines) == log.events()
