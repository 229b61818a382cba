"""Checkpoint bundles: exact restore, resume equivalence, corruption errors."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.serve.artifacts import ArtifactError, save_model
from repro.serve.service import CharacterizationService
from repro.stream import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    SessionManager,
    load_checkpoint,
    read_checkpoint_manifest,
    save_checkpoint,
)
from repro.stream.cli import _replay

from tests.io.escapes import CASES, escaping_entry

#: A format-version-2 checkpoint (``npz-compressed`` layout) written by the
#: version-2 code, which also stored per-session feature state
#: (``heat_grids`` / ``type_counts`` / ``motion_states``) and a drain
#: cursor in ``buffer_scalars``.  It holds the state ``_v2_fixture_state``
#: rebuilds: five sessions, pending events in every buffer, two dirty.
V2_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v2"

#: Arrays only checkpoints before format version 3 carry.
LEGACY_ARRAYS = ("heat_grids", "type_counts", "motion_states")


@pytest.fixture
def half_replayed(stream_service, workload):
    """A manager with every trace half streamed (some sessions scored)."""
    manager = SessionManager(stream_service, reorder_window=1.0, idle_timeout=500.0)
    _replay(
        manager, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
        stop_after=3,
    )
    return manager


class TestRoundTrip:
    def test_restore_is_exact(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt")
        manifest = read_checkpoint_manifest(bundle)
        assert manifest["n_sessions"] == len(half_replayed)
        restored = load_checkpoint(bundle, stream_service)
        assert restored.session_ids() == half_replayed.session_ids()
        assert restored.max_sessions == half_replayed.max_sessions
        assert restored.idle_timeout == half_replayed.idle_timeout
        assert restored.reorder_window == half_replayed.reorder_window
        for session_id in half_replayed.session_ids():
            original = half_replayed.session(session_id)
            copy = restored.session(session_id)
            assert copy.shape == original.shape
            assert copy.screen == original.screen
            assert copy.dirty == original.dirty
            assert copy.last_activity == original.last_activity
            assert copy.n_characterizations == original.n_characterizations
            assert copy.decisions == original.decisions
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(copy.buffer.snapshot(), column),
                    getattr(original.buffer.snapshot(), column),
                )
            assert copy.buffer.n_pending == original.buffer.n_pending
            assert copy.report() == original.report()
            if original.last_labels is None:
                assert copy.last_labels is None
            else:
                np.testing.assert_array_equal(copy.last_labels, original.last_labels)
                np.testing.assert_array_equal(
                    copy.last_probabilities, original.last_probabilities
                )

    def test_resume_matches_uninterrupted_run_bitwise(
        self, stream_service, workload, tmp_path
    ):
        """The acceptance property: checkpoint -> restore -> continue == one run."""
        uninterrupted = SessionManager(stream_service)
        _replay(uninterrupted, workload, steps=6, report_every=3, runtime=None, chunk_size=4)

        first_half = SessionManager(stream_service)
        _replay(
            first_half, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
            stop_after=3,
        )
        bundle = save_checkpoint(first_half, tmp_path / "half")
        resumed = load_checkpoint(bundle, stream_service)
        _replay(resumed, workload, steps=6, report_every=3, runtime=None, chunk_size=4)

        expected = uninterrupted.scores()
        actual = resumed.scores()
        assert set(expected) == set(actual) == {m.matcher_id for m in workload}
        for session_id, entry in expected.items():
            np.testing.assert_array_equal(actual[session_id]["labels"], entry["labels"])
            np.testing.assert_array_equal(
                actual[session_id]["probabilities"], entry["probabilities"]
            )

    @pytest.mark.parametrize("layout", ["npz-compressed", "npz", "mmap-dir"])
    def test_every_layout_round_trips(
        self, half_replayed, stream_service, tmp_path, layout
    ):
        """All three array layouts restore sessions exactly."""
        bundle = save_checkpoint(half_replayed, tmp_path / layout, layout=layout)
        manifest = read_checkpoint_manifest(bundle)
        assert manifest["arrays"]["layout"] == layout
        restored = load_checkpoint(bundle, stream_service)
        assert restored.session_ids() == half_replayed.session_ids()
        for session_id in half_replayed.session_ids():
            original = half_replayed.session(session_id)
            copy = restored.session(session_id)
            assert copy.report() == original.report()
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(copy.buffer.snapshot(), column),
                    getattr(original.buffer.snapshot(), column),
                )

    def test_empty_manager_round_trips(self, stream_service, tmp_path):
        bundle = save_checkpoint(SessionManager(stream_service), tmp_path / "empty")
        restored = load_checkpoint(bundle, stream_service)
        assert len(restored) == 0


def _v2_fixture_state(service, workload):
    """The manager state ``V2_FIXTURE`` was saved from.

    The first three of six replay steps (a pass after step 3), then the
    first half of live-000's step-4 events and live-003's first step-4
    decision — so those two sessions are dirty at the cut.
    """
    manager = SessionManager(service, reorder_window=1.0, idle_timeout=500.0)
    _replay(manager, workload, steps=6, report_every=3, runtime=None, chunk_size=4,
            stop_after=3)
    horizon = max(
        max(float(m.movement.data.t[-1]), m.history.decisions[-1].timestamp)
        for m in workload
    )
    start, end = np.linspace(0.0, horizon, 7)[3:5]
    events = workload[0]
    data = events.movement.data
    lo = int(np.searchsorted(
        data.t, manager.session(events.matcher_id).buffer.max_timestamp, side="right"
    ))
    cut = lo + (int(np.searchsorted(data.t, end, side="right")) - lo) // 2
    manager.ingest_events(
        events.matcher_id, data.x[lo:cut], data.y[lo:cut], data.codes[lo:cut],
        data.t[lo:cut],
    )
    decider = workload[3]
    decision = next(d for d in decider.history if start < d.timestamp <= end)
    manager.add_decision(
        decider.matcher_id, decision.row, decision.col, decision.confidence,
        decision.timestamp,
    )
    return manager


def _assert_same_sessions(actual, expected):
    assert actual.session_ids() == expected.session_ids()
    for session_id in expected.session_ids():
        original = expected.session(session_id)
        copy = actual.session(session_id)
        assert copy.shape == original.shape
        assert copy.screen == original.screen
        assert copy.dirty == original.dirty
        assert copy.last_activity == original.last_activity
        assert copy.n_characterizations == original.n_characterizations
        assert copy.decisions == original.decisions
        assert copy.buffer.n_pending == original.buffer.n_pending
        assert copy.buffer.watermark == original.buffer.watermark
        for view in ("committed", "snapshot"):
            for column in ("x", "y", "codes", "t"):
                np.testing.assert_array_equal(
                    getattr(getattr(copy.buffer, view)(), column),
                    getattr(getattr(original.buffer, view)(), column),
                )
        np.testing.assert_array_equal(copy.last_labels, original.last_labels)
        np.testing.assert_array_equal(
            copy.last_probabilities, original.last_probabilities
        )
        assert copy.report() == original.report()


class TestLegacyFormats:
    def test_v2_fixture_restores_exactly(self, stream_service, workload):
        assert read_checkpoint_manifest(V2_FIXTURE)["format_version"] == 2
        restored = load_checkpoint(V2_FIXTURE, stream_service)
        expected = _v2_fixture_state(stream_service, workload)
        _assert_same_sessions(restored, expected)
        sessions = [restored.session(s) for s in restored.session_ids()]
        assert all(session.buffer.n_pending for session in sessions)
        assert sum(session.dirty for session in sessions) == 2

    def test_v2_fixture_continues_like_uninterrupted_run(self, stream_service, workload):
        uninterrupted = SessionManager(stream_service, reorder_window=1.0, idle_timeout=500.0)
        _replay(uninterrupted, workload, steps=6, report_every=3, runtime=None, chunk_size=4)
        resumed = load_checkpoint(V2_FIXTURE, stream_service)
        _replay(resumed, workload, steps=6, report_every=3, runtime=None, chunk_size=4)
        expected = uninterrupted.scores()
        actual = resumed.scores()
        assert set(actual) == set(expected) == {m.matcher_id for m in workload}
        for session_id, entry in expected.items():
            np.testing.assert_array_equal(actual[session_id]["labels"], entry["labels"])
            np.testing.assert_array_equal(
                actual[session_id]["probabilities"], entry["probabilities"]
            )

    def test_v1_manifest_restores(self, stream_service, tmp_path):
        """Version 1: the same arrays, no layout entry in the manifest."""
        bundle = shutil.copytree(V2_FIXTURE, tmp_path / "v1")
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["arrays"]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        _assert_same_sessions(
            load_checkpoint(bundle, stream_service),
            load_checkpoint(V2_FIXTURE, stream_service),
        )

    def test_resave_writes_current_format_without_legacy_state(
        self, stream_service, tmp_path
    ):
        restored = load_checkpoint(V2_FIXTURE, stream_service)
        bundle = save_checkpoint(restored, tmp_path / "v3", layout="npz-compressed")
        assert read_checkpoint_manifest(bundle)["format_version"] == 3
        assert CHECKPOINT_FORMAT_VERSION == 3
        with np.load(bundle / "arrays.npz") as arrays:
            assert not set(LEGACY_ARRAYS) & set(arrays.files)
            assert arrays["buffer_scalars"].shape == (len(restored), 4)
        _assert_same_sessions(load_checkpoint(bundle, stream_service), restored)


class TestModelBinding:
    def test_mismatched_model_fingerprint_rejected(
        self, half_replayed, stream_model, workload, tmp_path
    ):
        """A checkpoint never silently resumes against a different model."""
        bundle_dir = save_model(stream_model, tmp_path / "model")
        bundled_service = CharacterizationService.from_bundle(bundle_dir)
        manager = SessionManager(bundled_service)
        matcher = workload[0]
        manager.open(matcher.matcher_id, matcher.history.shape)
        checkpoint = save_checkpoint(manager, tmp_path / "bound")
        assert read_checkpoint_manifest(checkpoint)["model_fingerprint"]
        # Same bundle: loads fine.
        load_checkpoint(checkpoint, bundled_service)
        # Tampered service fingerprint: rejected.
        impostor = CharacterizationService.from_bundle(bundle_dir)
        impostor._bundle_info["fingerprint"] = "0" * 32
        with pytest.raises(CheckpointError, match="model fingerprint"):
            load_checkpoint(checkpoint, impostor)
        # In-memory service (no fingerprint): accepted, but with a warning
        # that the binding could not be verified.
        with pytest.warns(UserWarning, match="no bundle fingerprint"):
            load_checkpoint(checkpoint, half_replayed.service)


class TestCorruption:
    def test_missing_bundle(self, stream_service, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path / "nope", stream_service)

    def test_wrong_format_and_version(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt")
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bundle, stream_service)
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(bundle, stream_service)
        manifest_path.write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(bundle, stream_service)

    def test_truncated_arrays(self, half_replayed, stream_service, tmp_path):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt", layout="npz-compressed")
        arrays_path = bundle / "arrays.npz"
        arrays_path.write_bytes(arrays_path.read_bytes()[: arrays_path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(bundle, stream_service)

    def test_tampered_arrays_fail_fingerprint(
        self, half_replayed, stream_service, tmp_path
    ):
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt", layout="npz-compressed")
        with np.load(bundle / "arrays.npz", allow_pickle=False) as npz:
            arrays = {key: np.array(npz[key]) for key in npz.files}
        arrays["activity"] = arrays["activity"] + 1.0
        with open(bundle / "arrays.npz", "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(bundle, stream_service)

    @pytest.mark.parametrize("layout, case", CASES)
    def test_array_paths_confined_to_bundle(
        self, half_replayed, stream_service, tmp_path, layout, case
    ):
        """A crafted manifest cannot make a restore read outside the bundle."""
        bundle = save_checkpoint(half_replayed, tmp_path / "ckpt", layout=layout)
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["arrays"] = escaping_entry(bundle, manifest["arrays"], case)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="not a plain file name"):
            load_checkpoint(bundle, stream_service)

    def test_checkpoint_error_is_an_artifact_error(self):
        assert issubclass(CheckpointError, ArtifactError)
