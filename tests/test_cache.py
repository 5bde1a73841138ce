import json
import random
import sys

import pytest

import oracles
from permcodec import cache
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


def assert_loads_as_the_old_reader(path, capsys):
    capsys.readouterr()
    old = oracles.load_cache_entries(path)
    old_err = capsys.readouterr().err
    store = CacheStore.load(path)
    assert capsys.readouterr().err == old_err
    assert {key: store.get(*key) for key in old} == old
    for key in (("132", 1 + max((n for _, n in old), default=0)), ("987654321", 4)):
        assert key not in old and store.get(*key) is None
    assert {key: store.get(*key) for key in store.entries} == old
    return old


def catalans(count):
    c = [1]
    while len(c) < count:
        n = len(c) - 1
        c.append(c[-1] * 2 * (2 * n + 1) // (n + 2))
    return c


def record(pattern, n, count):
    return json.dumps({"pattern": pattern, "n": n, "count": str(count)}, separators=(",", ":"))


def test_load_matches_the_old_reader_on_a_benchmark_fixture(tmp_path, capsys):
    # the shape of the benchmark's fixture: 2,062 records, most of them long Catalan counts
    records = [(q, n, c) for q in ("123", "132") for n, c in enumerate(catalans(1000))]
    records += [("1234", n, oracles.gessel_1234(n)) for n in range(8, 60)]
    records += [("1324", n, c) for n, c in enumerate(oracles.A061552[:10])]
    random.Random("fixture").shuffle(records)
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(record(*r) + "\n" for r in records))
    entries = assert_loads_as_the_old_reader(path, capsys)
    assert len(entries) == 2062 and entries[("132", 999)] == catalans(1000)[999]


#: characters the fuzz inserts: JSON syntax, number parts, whitespace and every
#: kind of line break str.splitlines knows, and non-ASCII letters and digits
FUZZ_ALPHABET = '0123456789{}[]":,.-+_eEtrunlf \t\n\r\x0b\x0c\x1c\x1f\x85\u2028é٣\\'


def fuzzed(rng, line):
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        spot = rng.randrange(len(chars) + 1)
        action = rng.choice(("insert", "delete", "replace"))
        if action == "insert":
            chars.insert(spot, rng.choice(FUZZ_ALPHABET))
        elif chars and spot < len(chars):
            if action == "delete":
                del chars[spot]
            else:
                chars[spot] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


@pytest.mark.parametrize("seed", range(20))
def test_load_matches_the_old_reader_on_fuzzed_files(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path = tmp_path / "cache.jsonl"
    for _ in range(20):
        lines = []
        for _ in range(rng.randint(1, 12)):
            line = record(rng.choice(("132", "1324", "21")), rng.randint(0, 12),
                          rng.randint(0, 10 ** rng.randint(0, 30)))
            lines.append(fuzzed(rng, line) if rng.random() < 0.7 else line)
        path.write_text("\n".join(lines) + rng.choice(("", "\n")), encoding="utf-8")
        assert_loads_as_the_old_reader(path, capsys)


def edge_lines():
    limit = sys.get_int_max_str_digits()
    good = '{"pattern":"132","n":3,"count":"5"}'
    return [
        "", "   ", "\t", "\x1f",  # blank to str.strip, and \x1f breaks no line
        f"{good}\r\n{good}\r\n",  # CRLF
        f"{good}\r{good}",  # lone CR
        *(f'{{"pattern":"132","n":3,{mark}"count":"6"}}' for mark in "\x0b\x1c\x85\u2028"),
        *(f"{good}{mark}{good}" for mark in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        '{"pattern":"132","n":05,"count":"1"}',  # a leading zero is no JSON number
        '{"pattern":"132","n":0,"count":"1"}',
        '{"pattern":"132","n":true,"count":"1"}',
        '{"pattern":"132","n":7.0,"count":"1"}',
        '{"pattern":"132","n":-3,"count":"1"}',
        '{"pattern":"132","n":"8","count":"1"}',
        '{"pattern":"\\u0031\\u0033\\u0032","n":4,"count":"14"}',  # escaped pattern
        '{"pattern":"132","n":4,"count":"14","count":"15"}',  # repeated key: JSON keeps the last
        '{"pattern":"132","n":4,"n":5,"count":"42"}',
        '{"pattern":"132","pattern":"123","n":4,"count":"14"}',
        '{"pattern":"132","n":4,"count":"1_000"}',
        '{"pattern":"132","n":4,"count":" 14 "}',
        '{"pattern":"132","n":4,"count":"+14"}',
        '{"pattern":"132","n":4,"count":"٣"}',  # a non-ASCII digit int() reads
        '{"pattern":"132","n":4,"count":""}',
        '{"pattern":"132","n":4,"count":14}',
        '{"pattern":"132","n":4,"count":4.5}',
        '{"pattern":"132","n":4,"count":null}',
        '{"pattern":"132","n":1e400,"count":"1"}',  # int(inf) raises OverflowError
        '{"pattern":"132","n":4,"count":1e400}',
        "[" * 100_000,  # nested past the parser's recursion limit
        '{"pattern":"","n":4,"count":"1"}',
        '{"pattern":"é","n":4,"count":"1"}',
        '{"pattern":132,"n":4,"count":"1"}',
        ' {"pattern":"132","n":4,"count":"14"} ',
        '{"pattern":"132","n":4,"count":"14"}x',
        '\ufeff{"pattern":"132","n":4,"count":"14"}',
        '{"n":4,"count":"14"}', "[1]", "5", '"132"', "not json",
        f'{{"pattern":"132","n":9,"count":"{"7" * limit}"}}',
        f'{{"pattern":"132","n":9,"count":"{"7" * (limit + 1)}"}}',  # past the int-digit limit
        f'{{"pattern":"132","n":{"9" * limit},"count":"1"}}',
        f'{{"pattern":"132","n":{"9" * (limit + 1)},"count":"1"}}',
    ]


@pytest.mark.parametrize("line", edge_lines(), ids=range(len(edge_lines())))
def test_load_matches_the_old_reader_on_edge_lines(tmp_path, capsys, line):
    path = tmp_path / "cache.jsonl"
    before = '{"pattern":"132","n":4,"count":"99"}\n'  # the edge line may replace it
    path.write_text(before + line + "\n" + before + line, encoding="utf-8")
    assert_loads_as_the_old_reader(path, capsys)


def test_a_file_written_by_put_loads_without_a_json_parse(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    store = CacheStore.load(path)
    for n, count in enumerate(catalans(300)):
        store.put("132", n, count)
    store.put("1324", 10, oracles.A061552[10])
    store.put("21", 0, 1)
    calls = []
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(args))
    again = CacheStore.load(path)
    assert calls == []
    assert {key: again.get(*key) for key in again.entries} == {
        key: store.get(*key) for key in store.entries}


def read_line_by_line(*args):
    raise AssertionError("the file was read line by line")


def test_a_file_written_by_put_is_never_read_line_by_line(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    store = CacheStore.load(path)
    records = [("132", n, count) for n, count in enumerate(catalans(300))]
    records += [("1324", 10, oracles.A061552[10]), ("21", 0, 1), ("132", 7, 1)]  # 132 at 7 again
    for r in records:
        store.put(*r)
    monkeypatch.setattr(cache, "_read_lines", read_line_by_line)
    again = CacheStore.load(path)
    expected = {(q, n): count for q, n, count in records}
    assert {key: again.get(*key) for key in expected} == expected
    assert again.get("132", 300) is None and again.get("13", 2) is None
    again.put("132", 7, 2)
    assert again.get("132", 7) == 2
    assert {key: again.get(*key) for key in again.entries} == expected | {("132", 7): 2}


def test_a_file_in_puts_form_is_read_in_one_pass_up_to_the_digit_limit(
        tmp_path, monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "cache.jsonl"
    with monkeypatch.context() as patched:
        patched.setattr(cache, "_read_lines", read_line_by_line)
        path.write_text(record("132", 4, 14) + "\n" + record("1324", 5, 103))  # no final newline
        store = CacheStore.load(path)
        assert (store.get("132", 4), store.get("1324", 5), store.get("132", 5)) == (14, 103, None)
        path.write_text(record("132", 9, "7" * limit) + "\n")
        assert CacheStore.load(path).get("132", 9) == int("7" * limit)
    path.write_text(record("132", 9, "7" * (limit + 1)) + "\n")
    assert CacheStore.load(path).get("132", 9) is None
    assert capsys.readouterr().err == f"permcodec: {path}:1: skipping malformed cache line\n"


@pytest.mark.parametrize("other", [
    '{"pattern": "132", "n": 5, "count": "7"}',
    '{"pattern":"\\u0031\\u0033\\u0032","n":5,"count":"7"}',
], ids=["spaces", "escaped"])
def test_the_later_record_wins_across_the_two_forms(tmp_path, capsys, other):
    path = tmp_path / "cache.jsonl"
    own = record("132", 5, 6)
    for lines, count in (((own, other), 7), ((other, own), 6)):
        path.write_text("\n".join(lines) + "\n")
        assert CacheStore.load(path).get("132", 5) == count
        assert assert_loads_as_the_old_reader(path, capsys) == {("132", 5): count}


def test_an_undecodable_line_is_skipped_with_a_warning(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'{"pattern":"132","n":2,"count":"2"}\n'
                     b'\xff\xfe{"pattern"\n'
                     b'{"pattern":"132","n":\xe9,"count":"5"}\x0b'
                     b'{"pattern":"132","n":3,"count":"5"}\n')
    store = CacheStore.load(path)
    assert {key: store.get(*key) for key in store.entries} == {("132", 2): 2, ("132", 3): 5}
    assert capsys.readouterr().err == "".join(
        f"permcodec: {path}:{lineno}: skipping malformed cache line\n" for lineno in (2, 3))


def test_put_escapes_a_comma_pattern_as_json_does(tmp_path):
    # the one pattern form put cannot write as it is; every pattern up to k = 9 is digits
    path = tmp_path / "cache.jsonl"
    CacheStore(path).put("10,1,2,3,4,5,6,7,8,9", 10, 1)
    assert path.read_bytes() == b'{"pattern":"10,1,2,3,4,5,6,7,8,9","n":10,"count":"1"}\n'
    assert CacheStore.load(path).get("10,1,2,3,4,5,6,7,8,9", 10) == 1


def test_put_starts_a_line_after_a_truncated_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"pattern":"132","n":4,"co')
    CacheStore(path).put("1324", 6, 513)
    assert path.read_text() == '{"pattern":"132","n":4,"co\n{"pattern":"1324","n":6,"count":"513"}\n'
    assert CacheStore.load(path).get("1324", 6) == 513
