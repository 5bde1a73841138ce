"""Persistent JSON-lines cache of avoidance counts.

One record per line: {"pattern": <text>, "n": <int>, "count": <decimal str>}.
Patterns are stored under their symmetry-class representative so equivalent
queries share entries. The file is append-only; on load, the last record for
a key wins, and malformed lines are skipped with a warning rather than
aborting the run. A line is malformed when it is not UTF-8, is not JSON,
lacks a key, holds a value that is not an integer (a number past the float
range, such as 1e400, included), nests deeper than the JSON parser recurses,
or holds a count or n with more digits than the interpreter turns into an
int (``sys.get_int_max_str_digits()``).

A file wholly in the form that ``put`` writes (``_put_form``) is checked
with one regular-expression match and kept as it was read: ``get`` searches
it backwards for the line that starts with the requested key and converts
only that count to an int. Any other file is read line by line; there a
line in ``put``'s form keeps its count as digits until ``get`` reads it,
and every other line is parsed with ``json.loads``, and only then is
``json`` imported. ``put`` writes a pattern of ASCII digits as it is and
escapes any other with ``json.dumps``; it starts its record on a new line
when the file ends mid-line.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from permcodec.errors import CacheIOError

#: put writes a record as _PATTERN + pattern + _N + n + _COUNT + count + _END
_PATTERN, _N, _COUNT, _END = b'{"pattern":"', b'","n":', b',"count":"', b'"}'
#: ASCII line breaks of str.splitlines that bytes.splitlines does not split at
_OTHER_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"
#: makes the match of a file's lines possessive, so it keeps no state per line (Python 3.11+)
_POSSESSIVE = b"+" if sys.version_info >= (3, 11) else b""


def _put_form() -> bytes:
    """The regular expression of a line in put's form; its groups are the pattern, n and count.

    A field is ASCII digits and never empty, n has no leading zero (JSON has
    none), and n and the count have at most as many digits as the interpreter
    turns into an int, ``sys.get_int_max_str_digits()`` (0: no limit).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = b"[0-9]{1,%d}" % limit if limit else b"[0-9]+"
    return b"%s([0-9]+)%s((?!0[0-9])%s)%s(%s)%s" % (
        re.escape(_PATTERN), re.escape(_N), digits, re.escape(_COUNT), digits, re.escape(_END))


def _lines(data: bytes) -> list[bytes]:
    """The lines of data, split where str.splitlines splits the decoded text."""
    if not data.isascii() or any(byte in data for byte in _OTHER_BREAKS):
        text = data.decode("utf-8", "surrogateescape")  # bytes that do not decode survive
        return [line.encode("utf-8", "surrogateescape") for line in text.splitlines()]
    return data.splitlines()


def _read_lines(path: Path, data: bytes, form: bytes) -> dict[tuple[str, int], int | bytes]:
    """The records of a file not wholly in put's form, one line at a time; the last wins."""
    records: dict[tuple[str, int], int | bytes] = {}
    line_form = re.compile(form)
    for lineno, line in enumerate(_lines(data), start=1):
        match = line_form.fullmatch(line)
        if match:
            records[match[1].decode(), int(match[2])] = match[3]
            continue
        import json  # only a line off put's form needs it

        try:
            text = line.decode()
            if not text.strip():
                continue
            record = json.loads(text)
            key = (str(record["pattern"]), int(record["n"]))
            value = int(record["count"])
        # UnicodeDecodeError is a ValueError; int(1e400) raises OverflowError, and a
        # deep nest of brackets RecursionError
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
            print(f"permcodec: {path}:{lineno}: skipping malformed cache line", file=sys.stderr)
            continue
        records[key] = value
    return records


class CacheStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        #: the file as read, when every line of it is in put's form; else empty
        self._data = b""
        #: key -> count (or its ASCII digits) put added, and the records of a file not in
        #: put's form; a record here is later than any in _data
        self._records: dict[tuple[str, int], int | bytes] = {}

    @classmethod
    def load(cls, path: str | Path) -> "CacheStore":
        store = cls(path)
        try:
            data = store.path.read_bytes()
        except FileNotFoundError:
            return store
        except OSError as exc:
            raise CacheIOError(f"cannot read cache {store.path}: {exc}") from exc
        form = _put_form()
        # lines in put's form, each ended by a newline except perhaps the last
        if re.fullmatch(b"(?:%s\n)*%s(?:%s)?" % (form, _POSSESSIVE, form), data):
            store._data = data
        else:
            store._records = _read_lines(store.path, data, form)
        return store

    @property
    def entries(self) -> dict[tuple[str, int], int | bytes]:
        """Every record by key: its count, or the count's ASCII digits until get converts them."""
        if self._data:  # parse the kept file once, under the records put added since
            records = {(match[1].decode(), int(match[2])): match[3]
                       for match in re.finditer(_put_form(), self._data)}
            self._data, self._records = b"", records | self._records
        return self._records

    def get(self, pattern_text: str, n: int) -> int | None:
        count = self._records.get((pattern_text, n))
        if count is None and self._data and pattern_text.isascii() and pattern_text.isdigit():
            try:
                key = b"".join((_PATTERN, pattern_text.encode(), _N, b"%d" % n, _COUNT))
            except ValueError:  # n is past the int-digit limit, so no line in put's form has it
                return None
            # each line is in put's form, so the last line that starts with the key is its record
            at = self._data.rfind(b"\n" + key)
            if at < 0 and not self._data.startswith(key):
                return None
            start = at + 1 + len(key)  # at is -1 for the first line
            count = self._data[start:self._data.index(b'"', start)]
        return int(count) if isinstance(count, bytes) else count

    def put(self, pattern_text: str, n: int, count: int) -> None:
        self._records[(pattern_text, n)] = count
        if pattern_text.isascii() and pattern_text.isdigit():  # every pattern up to k = 9
            pattern = pattern_text.encode()
        else:
            import json

            pattern = json.dumps(pattern_text)[1:-1].encode()  # escaped as inside a JSON string
        line = b"".join((_PATTERN, pattern, _N, b"%d" % n, _COUNT, b"%d" % count, _END, b"\n"))
        try:
            with open(self.path, "a+b") as handle:
                size = handle.seek(0, 2)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line  # close the last line a killed writer left open
                handle.write(line)
        except OSError as exc:
            raise CacheIOError(f"cannot append to cache {self.path}: {exc}") from exc
