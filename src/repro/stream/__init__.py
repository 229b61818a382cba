"""Streaming session layer: live ingestion, live scoring, checkpoints.

Everything upstream of this package is one-shot: a
:class:`~repro.matching.matcher.HumanMatcher` is materialised in full,
then scored.  The streaming layer makes the repo's outputs
*time-evolving* — events are ingested as they arrive and per-session
characterizations stay continuously current:

* :mod:`repro.stream.ingest` —
  :class:`StreamingEventBuffer`: amortized-growth columnar ingestion
  over :class:`~repro.matching.events.EventArray`, with
  monotonic-timestamp validation and a bounded reorder window for
  out-of-order arrival;
* :mod:`repro.stream.quarantine` — :class:`QuarantineLog`: bounded,
  exactly-counted diversion of malformed / out-of-window / duplicate
  events for the screened ingest path (live serving keeps going, the
  committed stream stays bitwise identical to a clean run on the
  survivors);
* :mod:`repro.stream.session` — :class:`SessionManager`: many concurrent
  sessions (each one event buffer plus decisions; features are derived
  from the buffer on read) with LRU/idle eviction, dirty-flagging, and batched
  re-characterization through the
  :class:`~repro.serve.CharacterizationService`;
* :mod:`repro.stream.checkpoint` — versioned, fingerprinted
  snapshot/restore of the full session state;
* :mod:`repro.stream.cli` — the ``python -m repro.stream replay``
  live-workload driver.

See the "Streaming session layer" section of ``docs/architecture.md``.
"""

from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    load_checkpoint,
    read_checkpoint_manifest,
    save_checkpoint,
)
from repro.stream.ingest import StreamingEventBuffer, StreamOrderError
from repro.stream.quarantine import (
    QUARANTINE_REASONS,
    QuarantinedEvent,
    QuarantineLog,
)
from repro.stream.session import MatcherSession, SessionManager

__all__ = [
    "StreamingEventBuffer",
    "StreamOrderError",
    "QUARANTINE_REASONS",
    "QuarantineLog",
    "QuarantinedEvent",
    "MatcherSession",
    "SessionManager",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_manifest",
]
