"""Per-layer tracing from outside the package.

The tracer replaces public functions of permcodec's modules with timing
wrappers at the places they are called from (a module attribute that holds
the function), runs the workload, and puts the originals back. Nothing in
permcodec is edited. Each wrapped call is a span; a span's self time is its
duration minus the time of the wrapped calls made inside it. Spans are
aggregated in memory by (name, parent name) and turned into the per-layer
metrics when the run ends.

A wrap point whose attribute no longer exists is skipped, so a refactor of
the package leaves that layer's counts at zero instead of breaking the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

_clock = time.perf_counter


def _not_none(result) -> bool:
    return result is not None


def _truthy(result) -> bool:
    return bool(result)


#: (module, attribute, span name, result classifier or None).
#: The kernels are reached as attributes of permcodec.kernels by every
#: caller; the other functions are imported by name, so each importing
#: module's binding is wrapped.
FULL_POINTS = (
    ("permcodec.kernels", "first_occurrence", "kernels.first_occurrence", None),
    ("permcodec.kernels", "has_occurrence_ending_at_last", "kernels.ending", _truthy),
    ("permcodec.kernels", "has_occurrence_starting_at", "kernels.starting", None),
    ("permcodec.kernels", "count_avoiders_dfs", "kernels.count_dfs", None),
    ("permcodec.codec", "canonical_coloring", "coloring.canonical", None),
    ("permcodec.codec", "occurrence_start_mask", "coloring.start_mask", None),
    ("permcodec.codec", "encode_avoider", "codec.encode", None),
    ("permcodec.codec", "decode_avoider", "codec.decode", None),
    ("permcodec.codec", "merge_pair", "codec.merge", None),
    ("permcodec.codec", "standardize", "perms.standardize", None),
    ("permcodec.codec", "split_by_mask", "perms.split", None),
    ("permcodec.codec", "staircase_pattern", "perms.staircase_pattern", None),
    ("permcodec.enumeration", "encode_avoider", "codec.encode", None),
    ("permcodec.enumeration", "decode_avoider", "codec.decode", None),
    ("permcodec.enumeration", "staircase_pattern", "perms.staircase_pattern", None),
    ("permcodec.enumeration", "validate_word", "words.validate", None),
    ("permcodec.enumeration", "count_avoiders", "enumeration.count", None),
    ("permcodec.enumeration", "_avoider_stream", "enumeration.stream", None),
    ("permcodec.cli", "staircase_pattern", "perms.staircase_pattern", None),
    ("permcodec.cli", "verify_injection", "enumeration.verify", None),
    ("permcodec.cli", "count_avoiders", "enumeration.count", None),
    ("permcodec.cli", "scan_classes", "enumeration.scan", None),
    ("permcodec.cache", "CacheStore.load", "cache.load", None),
    ("permcodec.cache", "CacheStore.get", "cache.get", _not_none),
    ("permcodec.cache", "CacheStore.put", "cache.put", None),
)

#: Only the count entry points, for timing count calls on a process pool
#: (wrappers would not report back from the worker processes anyway).
COUNT_POINTS = tuple(p for p in FULL_POINTS if p[2] == "enumeration.count")


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        # per (name, parent): [calls, inclusive s, self s, classified-true]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # kernels.count_dfs durations grouped by the span that called them
        self.shards: dict[int, list[float]] = defaultdict(list)
        self.bytes_appended = 0
        self._stack = [["", 0.0, 0]]  # frames: [name, child seconds, id]
        self._ids = 0
        self._undo: list = []

    # -- installing ---------------------------------------------------------

    def install(self, points) -> None:
        for module_name, attr, name, classify in points:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, classify))
            elif name == "enumeration.stream":
                wrapped = self._wrap_stream(raw, name)
            elif name == "cache.put":
                wrapped = self._wrap(self._measure_append(raw), name, classify)
            else:
                wrapped = self._wrap(raw, name, classify)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._ids += 1
        frame = [name, 0.0, self._ids]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float, hit: bool) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += elapsed
        row = self.stats[(frame[0], parent[0])]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - frame[1]
        row[3] += hit
        if frame[0] == "kernels.count_dfs":
            self.shards[parent[2]].append(elapsed)

    def _wrap(self, fn, name: str, classify):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(name)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(frame, _clock() - start, bool(classify and classify(result)))

        return wrapper

    def _wrap_stream(self, fn, name: str):
        """Time each step of the avoider stream; a step that yields counts as hit."""
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                frame = enter(name)
                start = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    leave(frame, _clock() - start, False)
                    return
                except BaseException:
                    leave(frame, _clock() - start, False)
                    raise
                leave(frame, _clock() - start, True)
                yield item

        return wrapper

    def _measure_append(self, fn):
        def put(store, *args, **kwargs):
            before = _size(store.path)
            try:
                return fn(store, *args, **kwargs)
            finally:
                self.bytes_appended += _size(store.path) - before

        return put

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(row[0] for (n, p), row in self.stats.items()
                   if n == name and parent in (None, p))

    def inclusive(self, name: str, parent: str | None = None) -> float:
        return sum(row[1] for (n, p), row in self.stats.items()
                   if n == name and parent in (None, p))

    def self_time(self, name: str) -> float:
        return sum(row[2] for (n, _), row in self.stats.items() if n == name)

    def hits(self, name: str, parent: str | None = None) -> int:
        return sum(row[3] for (n, p), row in self.stats.items()
                   if n == name and parent in (None, p))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "kernels.ending_calls": "count",
    "kernels.ending_s": "s",
    "kernels.starting_calls": "count",
    "kernels.starting_s": "s",
    "kernels.first_occurrence_calls": "count",
    "kernels.first_occurrence_s": "s",
    "kernels.count_dfs_calls": "count",
    "kernels.count_dfs_s": "s",
    "enumeration.stream_nodes": "count",
    "enumeration.stream_pruned": "count",
    "enumeration.stream_yield_ratio": "ratio",
    "enumeration.stream_self_s": "s",
    "enumeration.verify_other_s": "s",
    "enumeration.shard_imbalance": "ratio",
    "enumeration.count_call_s": "s",
    "enumeration.parallel_efficiency": "ratio",
    "coloring.canonical_calls": "count",
    "coloring.canonical_s": "s",
    "coloring.start_mask_calls": "count",
    "coloring.start_mask_s": "s",
    "codec.encode_calls": "count",
    "codec.encode_self_s": "s",
    "codec.merge_calls": "count",
    "codec.merge_s": "s",
    "codec.decode_calls": "count",
    "codec.decode_s": "s",
    "codec.decode_reencode_share": "ratio",
    "perms.standardize_calls": "count",
    "perms.split_calls": "count",
    "perms.staircase_pattern_calls": "count",
    "words.validate_calls": "count",
    "words.validate_s": "s",
    "cache.load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.appends": "count",
    "cache.bytes_appended": "bytes",
    "trace.overhead_s": "s",
    "trace.codec_share": "ratio",
}


def layer_metrics(traced: Tracer, traced_s: float, pooled: Tracer, jobs: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``traced_s``.

    ``pooled`` timed the same count calls on ``jobs`` workers; together with
    the traced pass's shard times it gives the pool's parallel efficiency.
    """
    t = traced
    nodes = t.calls("kernels.ending", "enumeration.stream")
    groups = [d for d in t.shards.values() if len(d) > 1]
    mean_total = sum(sum(d) / len(d) for d in groups)
    count_call_s = pooled.inclusive("enumeration.count")
    codec_s = (t.inclusive("codec.encode") - t.inclusive("codec.encode", "codec.decode")
               + t.inclusive("codec.decode"))
    values = {
        "kernels.ending_calls": t.calls("kernels.ending"),
        "kernels.ending_s": t.inclusive("kernels.ending"),
        "kernels.starting_calls": t.calls("kernels.starting"),
        "kernels.starting_s": t.inclusive("kernels.starting"),
        "kernels.first_occurrence_calls": t.calls("kernels.first_occurrence"),
        "kernels.first_occurrence_s": t.inclusive("kernels.first_occurrence"),
        "kernels.count_dfs_calls": t.calls("kernels.count_dfs"),
        "kernels.count_dfs_s": t.inclusive("kernels.count_dfs"),
        "enumeration.stream_nodes": nodes,
        "enumeration.stream_pruned": t.hits("kernels.ending", "enumeration.stream"),
        "enumeration.stream_yield_ratio": _ratio(t.hits("enumeration.stream"), nodes),
        "enumeration.stream_self_s": t.self_time("enumeration.stream"),
        "enumeration.verify_other_s": t.self_time("enumeration.verify"),
        "enumeration.shard_imbalance": _ratio(sum(max(d) for d in groups), mean_total),
        "enumeration.count_call_s": count_call_s,
        "enumeration.parallel_efficiency": _ratio(
            t.inclusive("kernels.count_dfs"), jobs * count_call_s),
        "coloring.canonical_calls": t.calls("coloring.canonical"),
        "coloring.canonical_s": t.inclusive("coloring.canonical"),
        "coloring.start_mask_calls": t.calls("coloring.start_mask"),
        "coloring.start_mask_s": t.inclusive("coloring.start_mask"),
        "codec.encode_calls": t.calls("codec.encode"),
        "codec.encode_self_s": t.self_time("codec.encode"),
        "codec.merge_calls": t.calls("codec.merge"),
        "codec.merge_s": t.inclusive("codec.merge"),
        "codec.decode_calls": t.calls("codec.decode"),
        "codec.decode_s": t.inclusive("codec.decode"),
        "codec.decode_reencode_share": _ratio(
            t.inclusive("codec.encode", "codec.decode"), t.inclusive("codec.decode")),
        "perms.standardize_calls": t.calls("perms.standardize"),
        "perms.split_calls": t.calls("perms.split"),
        "perms.staircase_pattern_calls": t.calls("perms.staircase_pattern"),
        "words.validate_calls": t.calls("words.validate"),
        "words.validate_s": t.inclusive("words.validate"),
        "cache.load_s": t.inclusive("cache.load"),
        "cache.hits": t.hits("cache.get"),
        "cache.misses": t.calls("cache.get") - t.hits("cache.get"),
        "cache.appends": t.calls("cache.put"),
        "cache.bytes_appended": t.bytes_appended,
        "trace.overhead_s": overhead_s,
        "trace.codec_share": _ratio(codec_s, traced_s),
    }
    return values
