"""Unit tests for chares and chare arrays."""

import pytest

from repro.runtime import Chare, ChareArray


class UnitChare(Chare):
    def work(self, iteration):
        return 1.0


def test_chare_key_and_defaults():
    c = UnitChare(3, state_bytes=128.0)
    ChareArray("grid", [c])
    assert c.key == ("grid", 3)
    assert c.state_bytes == 128.0
    assert c.current_core is None


def test_chare_validation():
    with pytest.raises(ValueError):
        UnitChare(-1)
    with pytest.raises(ValueError):
        UnitChare(0, state_bytes=-5.0)


def test_base_work_is_abstract():
    c = Chare(0)
    with pytest.raises(NotImplementedError):
        c.work(0)


def test_array_sorts_and_indexes():
    chares = [UnitChare(i) for i in (2, 0, 1)]
    arr = ChareArray("a", chares)
    assert [c.index for c in arr] == [0, 1, 2]
    assert arr[1].index == 1
    with pytest.raises(KeyError):
        arr[9]
    assert len(arr) == 3


def test_array_rejects_bad_construction():
    with pytest.raises(ValueError):
        ChareArray("", [UnitChare(0)])
    with pytest.raises(ValueError):
        ChareArray("a", [])
    with pytest.raises(ValueError):
        ChareArray("a", [UnitChare(0), UnitChare(0)])


def test_block_mapping_is_contiguous_and_even():
    arr = ChareArray("a", [UnitChare(i) for i in range(8)])
    mapping = arr.block_mapping([10, 11])
    assert [mapping[("a", i)] for i in range(8)] == [10] * 4 + [11] * 4


def test_block_mapping_uneven_split():
    arr = ChareArray("a", [UnitChare(i) for i in range(5)])
    mapping = arr.block_mapping([0, 1])
    counts = {0: 0, 1: 0}
    for cid in mapping.values():
        counts[cid] += 1
    assert counts == {0: 3, 1: 2}


def test_block_mapping_more_cores_than_chares():
    arr = ChareArray("a", [UnitChare(i) for i in range(2)])
    mapping = arr.block_mapping([0, 1, 2, 3])
    assert set(mapping.values()) == {0, 1}


def test_block_mapping_requires_cores():
    arr = ChareArray("a", [UnitChare(0)])
    with pytest.raises(ValueError):
        arr.block_mapping([])
