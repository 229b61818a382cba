"""StreamingEventBuffer: growth, ordering validation, reorder window, drains."""

import numpy as np
import pytest

from repro.matching.events import EventArray
from repro.stream import StreamingEventBuffer, StreamOrderError

from tests.stream.conftest import jittered, random_trace


class TestMonotonicIngestion:
    def test_single_appends_grow_amortized(self):
        buffer = StreamingEventBuffer(initial_capacity=2)
        for index in range(100):
            buffer.append(float(index), float(index), index % 4, float(index))
        assert len(buffer) == 100
        assert buffer.n_committed == 100  # window 0: everything commits
        committed = buffer.committed()
        np.testing.assert_array_equal(committed.t, np.arange(100.0))
        np.testing.assert_array_equal(committed.codes, np.arange(100) % 4)

    def test_equal_timestamps_allowed_and_stable(self):
        buffer = StreamingEventBuffer()
        buffer.extend([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0, 1, 2], [5.0, 5.0, 5.0])
        buffer.append(4.0, 0.0, 3, 5.0)
        np.testing.assert_array_equal(buffer.committed().x, [1.0, 2.0, 3.0, 4.0])

    def test_regression_rejected_without_window(self):
        buffer = StreamingEventBuffer()
        buffer.append(0.0, 0.0, 0, 10.0)
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 9.999)

    def test_regression_within_one_batch_rejected(self):
        buffer = StreamingEventBuffer()
        with pytest.raises(StreamOrderError):
            buffer.extend([0.0, 1.0], [0.0, 1.0], [0, 0], [5.0, 4.0])

    def test_invalid_events_rejected(self):
        buffer = StreamingEventBuffer()
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 9, 1.0)
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 0, -1.0)
        with pytest.raises(ValueError):
            buffer.append(0.0, 0.0, 0, float("nan"))
        with pytest.raises(ValueError):
            buffer.extend([0.0, 1.0], [0.0], [0], [1.0])
        with pytest.raises(ValueError):
            StreamingEventBuffer(reorder_window=-1.0)


class TestReorderWindow:
    def test_in_window_arrivals_commit_in_time_order(self):
        buffer = StreamingEventBuffer(reorder_window=2.0)
        for t in (10.0, 9.0, 11.0, 10.5, 12.5):
            buffer.append(t, 0.0, 0, t)
        buffer.flush()
        np.testing.assert_array_equal(
            buffer.committed().t, [9.0, 10.0, 10.5, 11.0, 12.5]
        )

    def test_watermark_trails_maximum(self):
        buffer = StreamingEventBuffer(reorder_window=3.0)
        assert buffer.watermark == -np.inf
        buffer.append(0.0, 0.0, 0, 10.0)
        assert buffer.watermark == pytest.approx(7.0)
        # Events newer than the watermark wait in the pending region.
        assert buffer.n_pending == 1

    def test_late_beyond_window_rejected(self):
        buffer = StreamingEventBuffer(reorder_window=1.0)
        buffer.append(0.0, 0.0, 0, 10.0)
        buffer.append(0.0, 0.0, 0, 9.5)  # inside the window
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 8.9)

    def test_flush_is_a_barrier(self):
        buffer = StreamingEventBuffer(reorder_window=5.0)
        buffer.append(0.0, 0.0, 0, 10.0)
        buffer.flush()
        assert buffer.n_pending == 0
        assert buffer.n_committed == 1
        # The flushed maximum is final: in-window stragglers are now late.
        with pytest.raises(StreamOrderError):
            buffer.append(0.0, 0.0, 0, 9.0)
        buffer.append(0.0, 0.0, 0, 10.0)  # at the barrier is still fine

    def test_snapshot_includes_pending(self):
        buffer = StreamingEventBuffer(reorder_window=10.0)
        buffer.extend([1.0, 2.0], [0.0, 0.0], [0, 1], [5.0, 3.0])
        assert buffer.n_committed == 0
        snapshot = buffer.snapshot()
        np.testing.assert_array_equal(snapshot.t, [3.0, 5.0])
        np.testing.assert_array_equal(snapshot.codes, [1, 0])


class TestWindow:
    def test_window_slicing_uses_committed_region(self):
        buffer = StreamingEventBuffer()
        buffer.extend([1.0, 2.0, 3.0], [0.0] * 3, [0] * 3, [1.0, 2.0, 3.0])
        window = buffer.window(1.5, 2.5)
        np.testing.assert_array_equal(window.t, [2.0])


class TestSnapshotEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 3, 17])
    def test_snapshot_matches_one_shot_event_array(self, chunk_size):
        rng = np.random.default_rng(7)
        columns = jittered(random_trace(rng, 80), rng, lag=4.0)
        buffer = StreamingEventBuffer(reorder_window=4.0)
        x, y, codes, t = columns
        for start in range(0, 80, chunk_size):
            sl = slice(start, start + chunk_size)
            buffer.extend(x[sl], y[sl], codes[sl], t[sl])
        reference = EventArray(x, y, codes, t)
        for stage in ("streaming", "flushed"):
            if stage == "flushed":
                buffer.flush()
                assert buffer.n_pending == 0
            snapshot = buffer.snapshot()
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(snapshot, column), getattr(reference, column), err_msg=stage
                )


class TestStateRoundTrip:
    def test_state_restores_future_behaviour(self):
        rng = np.random.default_rng(11)
        x, y, codes, t = jittered(random_trace(rng, 40), rng, lag=3.0)
        original = StreamingEventBuffer(reorder_window=3.0)
        original.extend(x[:25], y[:25], codes[:25], t[:25])
        restored = StreamingEventBuffer.from_state(original.state())
        assert restored.watermark == original.watermark
        assert restored.n_pending == original.n_pending
        np.testing.assert_array_equal(original.committed().t, restored.committed().t)
        for buffer in (original, restored):
            buffer.extend(x[25:], y[25:], codes[25:], t[25:])
            buffer.flush()
        for column in ("x", "y", "codes", "t"):
            np.testing.assert_array_equal(
                getattr(original.snapshot(), column),
                getattr(restored.snapshot(), column),
            )
