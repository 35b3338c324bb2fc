"""The one atomic JSON-document writer."""

import json

import pytest

from repro.util.atomic import atomic_write_json


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
