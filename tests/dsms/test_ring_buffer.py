"""Ring buffer: subscription, polling, drop accounting."""

import pytest

from repro.errors import StreamError
from repro.dsms.ring_buffer import RingBuffer


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StreamError):
            RingBuffer(0)

    def test_poll_returns_pushed_order(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        for i in range(5):
            ring.push(i)
        assert ring.poll(sid) == [0, 1, 2, 3, 4]

    def test_poll_consumes(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.push(1)
        assert ring.poll(sid) == [1]
        assert ring.poll(sid) == []

    def test_subscriber_sees_only_records_after_subscription(self):
        ring = RingBuffer(16)
        ring.push("early")
        sid = ring.subscribe()
        ring.push("late")
        assert ring.poll(sid) == ["late"]

    def test_max_records_limits_poll(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.poll(sid, max_records=3) == [0, 1, 2]
        assert ring.poll(sid) == list(range(3, 10))

    def test_len_counts_total_pushes(self):
        ring = RingBuffer(4)
        ring.extend(iter(range(10)))
        assert len(ring) == 10


class TestMultipleSubscribers:
    def test_independent_cursors(self):
        ring = RingBuffer(16)
        a, b = ring.subscribe(), ring.subscribe()
        ring.push(1)
        assert ring.poll(a) == [1]
        ring.push(2)
        assert ring.poll(a) == [2]
        assert ring.poll(b) == [1, 2]


class TestOverflow:
    def test_slow_consumer_drops_oldest(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        out = ring.poll(sid)
        assert out == [6, 7, 8, 9]
        assert ring.drops(sid) == 6

    def test_backlog(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.extend(iter(range(5)))
        assert ring.backlog(sid) == 5
        ring.poll(sid)
        assert ring.backlog(sid) == 0

    def test_drops_counted_before_poll(self):
        # Overwritten records must show up in drops()/backlog() as soon as
        # they become unreachable, not only after the next poll — overload
        # monitors read these counters without consuming the stream.
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.drops(sid) == 6
        assert ring.backlog(sid) == 4
        ring.poll(sid)
        assert ring.drops(sid) == 6
        assert ring.backlog(sid) == 0

    def test_pending_drops_are_not_double_counted(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.drops(sid) == 6
        ring.extend(iter(range(10, 14)))
        assert ring.drops(sid) == 10
        assert ring.poll(sid) == [10, 11, 12, 13]
        assert ring.drops(sid) == 10

    def test_no_drops_when_keeping_up(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        for i in range(20):
            ring.push(i)
            assert ring.poll(sid) == [i]
        assert ring.drops(sid) == 0


class TestErrors:
    def test_unknown_subscriber(self):
        ring = RingBuffer(4)
        with pytest.raises(StreamError):
            ring.poll(99)
        with pytest.raises(StreamError):
            ring.drops(99)
        with pytest.raises(StreamError):
            ring.backlog(99)


class TestPropertyBased:
    def test_random_push_poll_sequences_preserve_order(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)),
                        max_size=200),
               st.integers(2, 32))
        @settings(max_examples=50, deadline=None)
        def check(ops, capacity):
            ring = RingBuffer(capacity)
            sid = ring.subscribe()
            pushed = []
            polled = []
            for is_push, value in ops:
                if is_push:
                    ring.push(value)
                    pushed.append(value)
                else:
                    polled.extend(ring.poll(sid))
            polled.extend(ring.poll(sid))
            dropped = ring.drops(sid)
            # Everything polled is a subsequence of what was pushed, with
            # exactly `dropped` records missing.
            assert len(polled) + dropped == len(pushed)
            # Order-preservation: polled appears in pushed order.
            it = iter(pushed)
            assert all(any(v == p for p in it) for v in polled)

        check()

    def test_batch_extend_and_bounded_poll_match_per_record_model(self):
        """extend() and poll() move slices; a record-at-a-time model over
        the whole push history must see the same records and drops."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)),
                        max_size=40),
               st.integers(1, 9))
        @settings(max_examples=200, deadline=None)
        def check(ops, capacity):
            ring = RingBuffer(capacity)
            sid = ring.subscribe()
            history, cursor, drops = [], 0, 0
            for kind, n in ops:
                if kind < 2:
                    batch = list(range(len(history), len(history) + n))
                    assert ring.extend(iter(batch) if kind else batch) == n
                    history.extend(batch)
                    continue
                limit = None if kind == 2 else n
                oldest = max(0, len(history) - capacity)
                if cursor < oldest:
                    drops += oldest - cursor
                    cursor = oldest
                end = len(history) if limit is None else min(len(history), cursor + limit)
                assert ring.poll(sid, limit) == history[cursor:end]
                cursor = end
                assert ring.drops(sid) == drops
                assert ring.backlog(sid) == len(history) - cursor

        check()
