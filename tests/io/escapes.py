"""Manifest ``arrays`` entries that point outside their bundle.

Shared by the path-confinement tests of every bundle reader
(:func:`repro.io.bundle.read_arrays`, ``load_model``, ``load_checkpoint``).
Each path case names real array files — copies placed beside or below
the bundle — so a reader that joined the entry unchecked would load
them without complaint; only a confinement check can reject them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

#: Cases for single-file (npz) layouts: the ``file`` entry.
NPZ_CASES = ("file-absolute", "file-dotdot", "file-nested", "file-nonstring")

#: Cases for the ``mmap-dir`` layout: the ``dir`` entry and one ``files`` value.
MMAP_CASES = (
    "dir-absolute", "dir-dotdot", "dir-nested", "dir-nonstring",
    "files-absolute", "files-dotdot", "files-nested", "files-nonstring",
)

#: Every ``(layout, case)`` pair, for ``pytest.mark.parametrize``.
CASES = [("npz-compressed", case) for case in NPZ_CASES] + [
    ("mmap-dir", case) for case in MMAP_CASES
]


def escaping_entry(bundle, info: dict, case: str) -> dict:
    """A copy of the manifest ``arrays`` entry ``info`` rewritten for ``case``."""
    bundle = Path(bundle)
    field, kind = case.split("-")
    entry = dict(info)
    if field == "file":
        source = bundle / info["file"]
        entry["file"] = _place(source, bundle, kind, source.name)
        return entry
    directory = bundle / info["dir"]
    if field == "dir":
        entry["dir"] = _place(directory, bundle, kind, directory.name)
        return entry
    key, name = next(iter(info["files"].items()))
    files = dict(info["files"])
    files[key] = _place(directory / name, directory, kind, name)
    entry["files"] = files
    return entry


def _place(source: Path, parent: Path, kind: str, name: str):
    """Copy ``source`` where ``kind`` points and return the entry naming it."""
    copy = shutil.copytree if source.is_dir() else shutil.copyfile
    if kind == "absolute":
        target = parent.parent / f"outside-{name}"
        copy(source, target)
        return str(target.resolve())
    if kind == "dotdot":
        target = parent.parent / f"outside-{name}"
        copy(source, target)
        return f"../{target.name}"
    if kind == "nested":
        (parent / "sub").mkdir()
        copy(source, parent / "sub" / name)
        return f"sub/{name}"
    return 7
