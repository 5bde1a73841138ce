import json

import pytest

from permcodec.cache import CacheStore
from permcodec.errors import CacheIOError


def test_missing_file_loads_empty(tmp_path):
    store = CacheStore.load(tmp_path / "none.jsonl")
    assert store.entries == {}
    assert store.get("132", 5) is None


def test_put_get_roundtrip_through_disk(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = CacheStore.load(path)
    store.put("132", 5, 42)
    store.put("1234", 9, 10**30)

    again = CacheStore.load(path)
    assert again.get("132", 5) == 42
    assert again.get("1234", 9) == 10**30
    assert again.get("132", 6) is None

    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {"pattern": "132", "n": 5, "count": "42"}
    assert records[1]["count"] == str(10**30)


def test_last_write_wins_on_duplicate_keys(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = CacheStore.load(path)
    store.put("132", 5, 1)
    store.put("132", 5, 2)
    assert CacheStore.load(path).get("132", 5) == 2


def test_malformed_lines_are_skipped_with_a_warning(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        '{"pattern":"132","n":2,"count":"2"}\n'
        "not json at all\n"
        '{"pattern":"132"}\n'
        "\n"
        '{"pattern":"132","n":3,"count":"5"}\n'
    )
    store = CacheStore.load(path)
    assert store.get("132", 2) == 2
    assert store.get("132", 3) == 5
    assert len(store.entries) == 2
    assert capsys.readouterr().err.count("skipping malformed cache line") == 2


def test_unreadable_path_raises(tmp_path):
    with pytest.raises(CacheIOError):
        CacheStore.load(tmp_path)  # a directory cannot be read as a file
    store = CacheStore(tmp_path)
    with pytest.raises(CacheIOError):
        store.put("132", 2, 2)  # nor appended to
