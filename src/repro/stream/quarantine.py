"""Bounded quarantine for events rejected by screened ingestion.

The strict ingest path (:meth:`StreamingEventBuffer.extend`) raises on the
first malformed or out-of-window event — correct for trusted replay, fatal
for live serving where one adversarial or corrupted row must not abort a
session.  The screened path
(:meth:`StreamingEventBuffer.extend_screened`) diverts such events into a
:class:`QuarantineLog` instead: a bounded record buffer with **exact**
counters (overall, per reason, per session), so operators can audit what
was dropped without the log itself becoming an unbounded liability.

Quarantine reasons
------------------
``malformed``
    Non-finite or negative timestamp, or an event code outside
    ``[0, N_EVENT_TYPES)`` — events the strict path rejects with
    ``ValueError``.
``out_of_window``
    Older than the reorder window allows (or older than a flush
    barrier) — events the strict path rejects with
    :class:`~repro.stream.ingest.StreamOrderError`.
``duplicate``
    Bitwise-identical ``(t, x, y, code)`` payload to an event already
    accepted at or above the current watermark — the transport-level
    redelivery signature.  The strict path would accept these; screening
    diverts them so at-least-once transports do not double-count.  The
    ingestion adapters (:mod:`repro.adapters`) reuse the reason for
    exact duplicate rows inside a source file.
``unparseable``
    A source row the format adapter could not decode at all (garbage
    text, wrong field count, broken JSON) — row-level, raised before any
    field exists to validate.
``schema_invalid``
    A decoded row with a field that fails its
    :class:`~repro.adapters.FieldSpec` (wrong type, out of range,
    unknown enum value, entity outside the vocabulary).
``clock_skew``
    A row whose timestamp jumps *backwards* beyond the adapter's
    tolerance relative to the session's running maximum in the source —
    the broken-source-clock signature, distinct from transport reorder
    (``out_of_window``) which is judged against the live watermark.

The last three reasons are produced by the adapter layer
(:mod:`repro.adapters`); the stream layer produces the first three.
Both layers account into the same log, so operators see one exact
per-reason budget for everything that was dropped.

The screening invariant: the surviving events are fed to the strict path
unchanged, so ``committed()`` / ``snapshot()`` are bitwise identical to a
clean run ingesting only the survivors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.matching.events import N_EVENT_TYPES

#: The structured quarantine reasons, in check order: the first three are
#: produced by the stream layer's screened ingest, the last three by the
#: ingestion adapters (:mod:`repro.adapters`).
QUARANTINE_REASONS = (
    "malformed",
    "out_of_window",
    "duplicate",
    "schema_invalid",
    "unparseable",
    "clock_skew",
)

#: Default bound on retained records (counters are always exact).
DEFAULT_MAX_RECORDS = 256


@dataclass(frozen=True)
class QuarantinedEvent:
    """One diverted event: its payload, the reason, and a human detail."""

    session_id: str
    reason: str
    detail: str
    x: float
    y: float
    code: int
    t: float


class QuarantineLog:
    """Bounded record buffer with exact per-reason / per-session counters.

    Only the most recent ``max_records`` :class:`QuarantinedEvent`
    records are retained (oldest evicted first); the counters are never
    truncated, so accounting stays exact however long the stream runs.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        if max_records < 1:
            raise ValueError("max_records must be positive")
        self.max_records = int(max_records)
        self._records: deque[QuarantinedEvent] = deque(maxlen=self.max_records)
        self.total = 0
        self.by_reason: dict[str, int] = {reason: 0 for reason in QUARANTINE_REASONS}
        self.by_session: dict[str, dict[str, int]] = {}

    def add(
        self,
        *,
        session_id: str,
        reason: str,
        detail: str,
        x: float,
        y: float,
        code: int,
        t: float,
    ) -> QuarantinedEvent:
        """Record one diverted event and bump every counter it touches."""
        if reason not in self.by_reason:
            raise ValueError(
                f"unknown quarantine reason {reason!r}; "
                f"expected one of {QUARANTINE_REASONS}"
            )
        event = QuarantinedEvent(
            session_id=session_id, reason=reason, detail=detail,
            x=float(x), y=float(y), code=int(code), t=float(t),
        )
        self._records.append(event)
        self.total += 1
        self.by_reason[reason] += 1
        per_session = self.by_session.setdefault(
            session_id, {reason_name: 0 for reason_name in QUARANTINE_REASONS}
        )
        per_session[reason] += 1
        # Mirror the same increment into the metrics registry so the
        # /metrics series and counts() can never disagree.
        from repro import obs

        if obs.obs_enabled():
            obs.counter(
                "repro_quarantine_total",
                "Events diverted to quarantine, by reason.",
                labelnames=("reason",),
            ).inc(reason=reason)
        return event

    def records(self) -> list[QuarantinedEvent]:
        """The retained (most recent) records, oldest first."""
        return list(self._records)

    def session_counts(self, session_id: str) -> dict[str, int]:
        """Exact per-reason counts for one session (zeros if never seen)."""
        counts = self.by_session.get(session_id)
        if counts is None:
            return {reason: 0 for reason in QUARANTINE_REASONS}
        return dict(counts)

    def counts(self) -> dict:
        """A JSON-friendly snapshot of every counter."""
        return {
            "total": self.total,
            "retained": len(self._records),
            "by_reason": dict(self.by_reason),
            "by_session": {
                session_id: dict(per_session)
                for session_id, per_session in self.by_session.items()
            },
        }

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"QuarantineLog(total={self.total}, retained={len(self._records)}, "
            f"by_reason={self.by_reason})"
        )


def corrupt_event_columns(
    x: np.ndarray,
    y: np.ndarray,
    codes: np.ndarray,
    t: np.ndarray,
    rng: np.random.Generator,
    *,
    watermark: float = -np.inf,
    count: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Append ``count`` deterministically corrupted events to a batch.

    The chaos companion of the quarantine path (driven by the
    ``stream.ingest`` fault seam): each appended event is one of the
    quarantinable shapes — NaN timestamp, out-of-range code, an exact
    duplicate of a batch event, or a stale pre-watermark timestamp (when
    the watermark is finite and positive; otherwise the stale variant
    degenerates to a NaN timestamp).  Corruption is appended at the *end*
    of the batch so the screening decisions for the original events are
    unchanged — the survivors, and therefore the committed stream, stay
    bitwise identical to the clean run.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    codes = np.asarray(codes, dtype=np.int64).ravel()
    t = np.asarray(t, dtype=np.float64).ravel()
    extra_x, extra_y, extra_codes, extra_t = [], [], [], []
    for _ in range(int(count)):
        variant = int(rng.integers(0, 4))
        if variant == 2 and t.size:  # duplicate of an original batch event
            index = int(rng.integers(0, t.size))
            extra_x.append(float(x[index]))
            extra_y.append(float(y[index]))
            extra_codes.append(int(codes[index]))
            extra_t.append(float(t[index]))
            continue
        px = float(np.round(rng.uniform(0.0, 100.0), 3))
        py = float(np.round(rng.uniform(0.0, 100.0), 3))
        if variant == 0:  # malformed: NaN timestamp
            extra_x.append(px)
            extra_y.append(py)
            extra_codes.append(0)
            extra_t.append(float("nan"))
        elif variant == 1:  # malformed: out-of-range code
            reference = float(t[-1]) if t.size else max(watermark, 0.0)
            extra_x.append(px)
            extra_y.append(py)
            extra_codes.append(N_EVENT_TYPES + int(rng.integers(0, 3)))
            extra_t.append(max(reference, 0.0))
        else:  # stale: behind the watermark (fallback: NaN timestamp)
            if np.isfinite(watermark) and watermark > 0:
                extra_x.append(px)
                extra_y.append(py)
                extra_codes.append(0)
                extra_t.append(float(watermark) / 2.0)
            else:
                extra_x.append(px)
                extra_y.append(py)
                extra_codes.append(0)
                extra_t.append(float("nan"))
    return (
        np.concatenate([x, np.array(extra_x, dtype=np.float64)]),
        np.concatenate([y, np.array(extra_y, dtype=np.float64)]),
        np.concatenate([codes, np.array(extra_codes, dtype=np.int64)]),
        np.concatenate([t, np.array(extra_t, dtype=np.float64)]),
    )


__all__ = [
    "DEFAULT_MAX_RECORDS",
    "QUARANTINE_REASONS",
    "QuarantineLog",
    "QuarantinedEvent",
    "corrupt_event_columns",
]
