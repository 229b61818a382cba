"""The shared array-bundle codec: layouts, fingerprints, failure modes."""

import json

import numpy as np
import pytest

from repro.io.bundle import (
    BundleError,
    BundleLayout,
    arrays_fingerprint,
    as_layout,
    read_arrays,
    read_bundle_manifest,
    write_arrays,
)

from tests.io.escapes import CASES, escaping_entry

LAYOUTS = tuple(BundleLayout)


def _sample_arrays():
    rng = np.random.default_rng(3)
    return {
        "floats": rng.standard_normal((7, 3)),
        "ints": rng.integers(-5, 5, size=11),
        "000001/tree/feature": np.array([2, -1, 0], dtype=np.int64),  # "/" in key
        "names": np.array(["alpha", "beta"], dtype=np.str_),
        "bools": np.array([True, False, True]),
        "empty": np.zeros((0, 4)),
        "scalarish": np.array(3.5),
    }


@pytest.mark.parametrize("layout", LAYOUTS)
def test_round_trip_bitwise(tmp_path, layout):
    arrays = _sample_arrays()
    info = write_arrays(tmp_path / "bundle", arrays, layout=layout)
    assert info["layout"] == layout.value
    assert info["count"] == len(arrays)
    loaded = read_arrays(tmp_path / "bundle", info)
    assert set(loaded) == set(arrays)
    for key in arrays:
        assert loaded[key].dtype == np.asarray(arrays[key]).dtype
        np.testing.assert_array_equal(loaded[key], arrays[key])


def test_fingerprint_is_layout_independent(tmp_path):
    arrays = _sample_arrays()
    reference = arrays_fingerprint(arrays)
    for layout in LAYOUTS:
        bundle = tmp_path / layout.value
        info = write_arrays(bundle, arrays, layout=layout)
        assert arrays_fingerprint(read_arrays(bundle, info)) == reference


def test_fingerprint_sensitive_to_content_key_dtype_shape():
    base = {"a": np.arange(6, dtype=np.float64)}
    assert arrays_fingerprint(base) != arrays_fingerprint({"a": np.arange(6) + 1.0})
    assert arrays_fingerprint(base) != arrays_fingerprint({"b": np.arange(6, dtype=np.float64)})
    assert arrays_fingerprint(base) != arrays_fingerprint({"a": np.arange(6, dtype=np.int64)})
    assert arrays_fingerprint(base) != arrays_fingerprint(
        {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
    )
    assert arrays_fingerprint(base, header="spec") != arrays_fingerprint(base)


def test_mmap_dir_loads_read_only_memmaps(tmp_path):
    arrays = _sample_arrays()
    info = write_arrays(tmp_path / "b", arrays, layout=BundleLayout.MMAP_DIR)
    loaded = read_arrays(tmp_path / "b", info)
    assert all(isinstance(value, np.memmap) for value in loaded.values())
    assert not loaded["floats"].flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        loaded["floats"][0, 0] = 99.0
    # mmap=False materializes owned, writable copies.
    owned = read_arrays(tmp_path / "b", info, mmap=False)
    assert not any(isinstance(value, np.memmap) for value in owned.values())
    np.testing.assert_array_equal(owned["floats"], arrays["floats"])


def test_missing_info_reads_legacy_npz(tmp_path):
    """A manifest entry without a layout (format v1) means arrays.npz."""
    arrays = _sample_arrays()
    write_arrays(tmp_path / "legacy", arrays, layout=BundleLayout.NPZ_COMPRESSED)
    for info in (None, {"file": "arrays.npz", "count": len(arrays)}):
        loaded = read_arrays(tmp_path / "legacy", info)
        np.testing.assert_array_equal(loaded["floats"], arrays["floats"])


def test_as_layout_accepts_names_and_rejects_unknown():
    assert as_layout("mmap-dir") is BundleLayout.MMAP_DIR
    assert as_layout(BundleLayout.NPZ) is BundleLayout.NPZ
    with pytest.raises(BundleError, match="unknown bundle layout"):
        as_layout("tar")


def test_object_dtype_rejected(tmp_path):
    with pytest.raises(BundleError, match="object dtype"):
        write_arrays(tmp_path / "bad", {"objs": np.array([{}, []], dtype=object)})


def test_missing_npz_file(tmp_path):
    info = write_arrays(tmp_path / "b", {"a": np.arange(3)}, layout=BundleLayout.NPZ)
    (tmp_path / "b" / "arrays.npz").unlink()
    with pytest.raises(BundleError, match="missing"):
        read_arrays(tmp_path / "b", info)


def test_truncated_npz(tmp_path):
    info = write_arrays(
        tmp_path / "b", _sample_arrays(), layout=BundleLayout.NPZ_COMPRESSED
    )
    path = tmp_path / "b" / "arrays.npz"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(BundleError, match="unreadable"):
        read_arrays(tmp_path / "b", info)


def test_mmap_dir_missing_key_index(tmp_path):
    info = write_arrays(tmp_path / "b", {"a": np.arange(3)}, layout=BundleLayout.MMAP_DIR)
    stripped = {key: value for key, value in info.items() if key != "files"}
    with pytest.raises(BundleError, match="key index"):
        read_arrays(tmp_path / "b", stripped)


def test_mmap_dir_missing_array_file(tmp_path):
    arrays = {"a": np.arange(3), "b": np.arange(5.0)}
    info = write_arrays(tmp_path / "b", arrays, layout=BundleLayout.MMAP_DIR)
    (tmp_path / "b" / "arrays" / info["files"]["b"]).unlink()
    with pytest.raises(BundleError, match="missing array file"):
        read_arrays(tmp_path / "b", info)


@pytest.mark.parametrize("layout, case", CASES)
def test_manifest_entries_confined_to_bundle(tmp_path, layout, case):
    """Absolute, ``..``, nested and non-string entries raise the caller's error."""

    class MyError(BundleError):
        pass

    bundle = tmp_path / "b"
    info = write_arrays(bundle, _sample_arrays(), layout=layout)
    entry = escaping_entry(bundle, info, case)
    with pytest.raises(MyError, match="not a plain file name"):
        read_arrays(bundle, entry, error=MyError)
    read_arrays(bundle, info)  # the untouched entry still loads


def test_custom_error_class(tmp_path):
    class MyError(BundleError):
        pass

    with pytest.raises(MyError):
        read_arrays(tmp_path / "nowhere", None, error=MyError)


def test_manifest_validation(tmp_path):
    bundle = tmp_path / "b"
    bundle.mkdir()
    with pytest.raises(BundleError, match="missing manifest.json"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text("{broken")
    with pytest.raises(BundleError, match="not valid JSON"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text(json.dumps({"format": "other", "format_version": 1}))
    with pytest.raises(BundleError, match="is not a fmt manifest"):
        read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1,))
    (bundle / "manifest.json").write_text(json.dumps({"format": "fmt", "format_version": 9}))
    with pytest.raises(BundleError, match="unsupported thing format version"):
        read_bundle_manifest(
            bundle, format_name="fmt", supported_versions=(1, 2), kind="thing"
        )
    (bundle / "manifest.json").write_text(
        json.dumps({"format": "fmt", "format_version": 2, "extra": True})
    )
    manifest = read_bundle_manifest(bundle, format_name="fmt", supported_versions=(1, 2))
    assert manifest["extra"] is True
