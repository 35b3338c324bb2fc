"""The atomic writers: file text, and the mode the written file gets."""

import json
import os
import stat

import pytest

from repro.util.atomic import atomic_write, atomic_write_json


def test_text_is_indented_sorted_json_with_a_newline(tmp_path):
    payload = {"b": [1, 2.5, None], "a": {"z": "é", "y": True}}
    path = tmp_path / "doc.json"
    atomic_write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_missing_parent_directory_is_created(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    atomic_write_json(str(path), {"k": 1})
    assert json.loads(path.read_text()) == {"k": 1}


def test_unserialisable_payload_leaves_nothing_behind(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        atomic_write_json(path, {"k": object()})
    assert not path.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_file_has_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_json(tmp_path / "doc.json", {"k": 1})
        with atomic_write(tmp_path / "text.txt") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    expected = 0o666 & ~umask
    assert stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode) == expected
    assert stat.S_IMODE(os.stat(tmp_path / "doc.json").st_mode) == expected
    assert stat.S_IMODE(os.stat(tmp_path / "text.txt").st_mode) == expected
