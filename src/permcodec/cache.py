"""Persistent JSON-lines cache of avoidance counts.

One record per line: {"pattern": <text>, "n": <int>, "count": <decimal str>}.
Patterns are stored under their symmetry-class representative so equivalent
queries share entries. The file is append-only; on load, the last record for
a key wins, and malformed lines are skipped with a warning rather than
aborting the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from permcodec.errors import CacheIOError


class CacheStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[tuple[str, int], int] = {}

    @classmethod
    def load(cls, path: str | Path) -> "CacheStore":
        store = cls(path)
        try:
            text = store.path.read_text()
        except FileNotFoundError:
            return store
        except OSError as exc:
            raise CacheIOError(f"cannot read cache {store.path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = (str(record["pattern"]), int(record["n"]))
                value = int(record["count"])
            except (ValueError, TypeError, KeyError):
                print(f"permcodec: {store.path}:{lineno}: skipping malformed cache line",
                      file=sys.stderr)
                continue
            store.entries[key] = value
        return store

    def get(self, pattern_text: str, n: int) -> int | None:
        return self.entries.get((pattern_text, n))

    def put(self, pattern_text: str, n: int, count: int) -> None:
        self.entries[(pattern_text, n)] = count
        line = json.dumps(
            {"pattern": pattern_text, "n": n, "count": str(count)},
            separators=(",", ":"),
        )
        try:
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
        except OSError as exc:
            raise CacheIOError(f"cannot append to cache {self.path}: {exc}") from exc
