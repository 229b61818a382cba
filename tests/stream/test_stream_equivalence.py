"""Property-style streaming equivalence: the buffer == a one-shot EventArray.

Replays random traces through a :class:`StreamingEventBuffer` in random
chunkings — including one-event chunks and arrivals reordered inside the
reorder window — and asserts at **every** chunk boundary that the
buffer's snapshot (committed + pending) is bitwise identical to a
one-shot :class:`EventArray` over the events that have arrived, and that
its committed region is that array's prefix.  Session features are
derived from these columns on read, so this is the whole streaming
equivalence contract.
"""

import numpy as np
import pytest

from repro.matching.events import EventArray
from repro.stream import StreamingEventBuffer

from tests.stream.conftest import jittered, random_trace

SCREEN = (768, 1024)
COLUMNS = ("x", "y", "codes", "t")


def _random_chunk_sizes(rng, n):
    """A random chunking of ``n`` arrivals, singleton chunks included."""
    sizes = []
    remaining = n
    while remaining:
        if rng.random() < 0.25:
            size = 1
        else:
            size = int(rng.integers(1, 16))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def _assert_buffer_equals_batch(buffer, x, y, codes, t):
    """Snapshot == one-shot EventArray of the arrivals; committed == its prefix."""
    reference = EventArray(x, y, codes, t)
    snapshot = buffer.snapshot()
    committed = buffer.committed()
    assert len(snapshot) == len(reference)
    assert len(committed) == buffer.n_committed
    for column in COLUMNS:
        expected = getattr(reference, column)
        np.testing.assert_array_equal(getattr(snapshot, column), expected)
        np.testing.assert_array_equal(
            getattr(committed, column), expected[: buffer.n_committed]
        )


@pytest.mark.parametrize("trial", range(8))
@pytest.mark.parametrize("reorder", [0.0, 5.0])
def test_random_traces_random_chunkings(trial, reorder):
    """The streaming property over random traces, chunkings, reorderings."""
    rng = np.random.default_rng(1000 * trial + int(reorder))
    n = int(rng.integers(1, 400))
    columns = random_trace(rng, n, screen=SCREEN)
    if reorder:
        columns = jittered(columns, rng, lag=reorder)
    x, y, codes, t = columns

    buffer = StreamingEventBuffer(reorder_window=reorder)
    start = 0
    for size in _random_chunk_sizes(rng, n):
        buffer.extend(x[start : start + size], y[start : start + size],
                      codes[start : start + size], t[start : start + size])
        start += size
        # Checkpoint: buffer columns vs one-shot recompute, every chunk.
        _assert_buffer_equals_batch(buffer, x[:start], y[:start], codes[:start], t[:start])

    buffer.flush()
    assert buffer.n_pending == 0
    _assert_buffer_equals_batch(buffer, x, y, codes, t)


@pytest.mark.parametrize("trial", range(3))
def test_interleaved_sessions_never_bleed(trial):
    """Independent per-session buffers never bleed into each other."""
    rng = np.random.default_rng(50 + trial)
    traces = [random_trace(rng, int(rng.integers(10, 120)), screen=SCREEN) for _ in range(4)]
    buffers = [StreamingEventBuffer() for _ in traces]
    cursors = [0] * len(traces)
    while any(cursors[i] < traces[i][3].size for i in range(len(traces))):
        i = int(rng.integers(0, len(traces)))
        x, y, codes, t = traces[i]
        if cursors[i] >= t.size:
            continue
        size = min(int(rng.integers(1, 9)), t.size - cursors[i])
        sl = slice(cursors[i], cursors[i] + size)
        buffers[i].extend(x[sl], y[sl], codes[sl], t[sl])
        cursors[i] += size
    for trace, buffer in zip(traces, buffers):
        _assert_buffer_equals_batch(buffer, *trace)
