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

Loading indexes the lines in the form that ``put`` writes with bytes
methods and keeps each count as its digits; a count is converted to an int
when ``get`` reads it. Every other line is parsed with ``json.loads``, and
only then is ``json`` imported. ``put`` writes a pattern of ASCII digits as
it is and escapes any other with ``json.dumps``; it starts its record on a
new line when the file ends mid-line.
"""

from __future__ import annotations

import sys
from pathlib import Path

from permcodec.errors import CacheIOError

#: put writes a record as _PATTERN + pattern + _N + n + _COUNT + count + _END
_PATTERN, _N, _COUNT, _END = b'{"pattern":"', b'","n":', b',"count":"', b'"}'
#: ASCII line breaks of str.splitlines that bytes.splitlines does not split at
_OTHER_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"


def _lines(data: bytes) -> list[bytes]:
    """The lines of data, split where str.splitlines splits the decoded text."""
    if not data.isascii() or any(byte in data for byte in _OTHER_BREAKS):
        text = data.decode("utf-8", "surrogateescape")  # bytes that do not decode survive
        return [line.encode("utf-8", "surrogateescape") for line in text.splitlines()]
    return data.splitlines()


class CacheStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        #: key -> count, or the count's ASCII digits until get converts them
        self.entries: dict[tuple[str, int], int | bytes] = {}

    @classmethod
    def load(cls, path: str | Path) -> "CacheStore":
        store = cls(path)
        try:
            lines = _lines(store.path.read_bytes())
        except FileNotFoundError:
            return store
        except OSError as exc:
            raise CacheIOError(f"cannot read cache {store.path}: {exc}") from exc
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize
        for lineno, line in enumerate(lines, start=1):
            if line.startswith(_PATTERN) and line.endswith(_END):
                pattern, _, rest = line[len(_PATTERN):-len(_END)].partition(_N)
                n, _, count = rest.partition(_COUNT)
                if (pattern.isdigit() and n.isdigit() and count.isdigit()
                        and (n[0] != 48 or len(n) == 1)  # JSON has no leading zero: 48 is "0"
                        and len(n) <= limit and len(count) <= limit):
                    store.entries[pattern.decode(), int(n)] = count
                    continue
            import json  # only a line off the indexed form needs it

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
                print(f"permcodec: {store.path}:{lineno}: skipping malformed cache line",
                      file=sys.stderr)
                continue
            store.entries[key] = value
        return store

    def get(self, pattern_text: str, n: int) -> int | None:
        count = self.entries.get((pattern_text, n))
        return int(count) if isinstance(count, bytes) else count

    def put(self, pattern_text: str, n: int, count: int) -> None:
        self.entries[(pattern_text, n)] = count
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
