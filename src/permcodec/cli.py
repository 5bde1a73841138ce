"""Command-line surface.

Subcommands: encode, decode, count, words, bounds, verify, scan. stdout
carries data only (JSON, CSV, or plain key=value lines); diagnostics go to
stderr. Output bytes depend only on the flags, never on --jobs. Once stdout
is closed, the rest of it is dropped, and the exit code stays the command's.

Each subcommand takes only the flags it reads, except that count accepts
--jobs and verify --cache, which perfbench passes, and ignores them.

A command imports inside its function what only some commands run, so the
others start without it: permcodec.wordcount (with fractions and decimal)
for words, bounds and scan's plain output, permcodec.codec for encode and
decode, permcodec.words (the code pair and the word families) for encode,
decode and words, the count cache for count, and json for the --format
json output. Permutation and word text is read and printed with the
grammar in permcodec.perms.

Exit codes:
  0  success
  1  verification found a defect
  2  unreadable input (permutation or word text, bad lengths, bad ranges),
     or a flag the subcommand does not take
  3  precondition failed: the permutation contains the pattern
  4  the word pair is not the code of any avoider
  5  refused: the requested sweep exceeds the node budget or size limits,
     or the count ran out of memory
  6  cache file could not be read or written
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from permcodec.enumeration import (
    DEFAULT_NODE_BUDGET,
    count_avoiders,
    require_length,
    scan_classes,
    staircase_counts,
    verify_injection,
)
from permcodec.errors import (
    CacheIOError,
    DomainError,
    MalformedInput,
    NotInImage,
    PreconditionViolated,
    ScaleRefused,
)
from permcodec.perms import format_permutation, parse_permutation, parse_word

DEFAULT_CACHE = "permcodec-cache.jsonl"

#: digits `words` and `bounds` print at most where the interpreter sets no
#: int-to-text limit (CPython's default limit)
DEFAULT_DIGIT_LIMIT = 4300


def _cache_path(args: argparse.Namespace) -> str:
    if args.cache is not None:
        return args.cache
    return os.environ.get("PERMCODEC_CACHE", DEFAULT_CACHE)


def _emit(line: str) -> None:
    _to_stdout(sys.stdout.write, line + "\n")


def _to_stdout(write, *args) -> None:
    """Write or flush stdout; once its reader is gone, send the rest to os.devnull."""
    try:
        write(*args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_encode(args: argparse.Namespace) -> int:
    from permcodec.codec import encode_avoider

    pair = encode_avoider(parse_permutation(args.perm), args.k)
    _emit(pair.to_json())
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from permcodec.codec import decode_avoider
    from permcodec.words import CodePair

    pair = CodePair(parse_word(args.w), parse_word(args.wp))
    try:
        p = decode_avoider(pair, args.k)
    except NotInImage:
        _emit("NOT-IN-IMAGE")
        return 4
    _emit(format_permutation(p))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from permcodec.cache import CacheStore

    q = parse_permutation(args.pattern)
    require_length(args.n)
    store = CacheStore.load(_cache_path(args))
    total = count_avoiders(q, args.n, cache=store, budget=args.budget)
    _emit(str(total))
    return 0


def _digit_limit() -> int:
    """Digits the interpreter turns into text at most."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_DIGIT_LIMIT


def cmd_words(args: argparse.Namespace) -> int:
    from permcodec.wordcount import count_words
    from permcodec.words import WordFamily

    family = WordFamily(args.m, args.parity)
    limit = _digit_limit()
    if args.n is None:
        try:
            _emit(family.describe())
        except ValueError as exc:  # the top letter is past the int-to-text limit
            raise ScaleRefused(f"the top letter has over {limit} digits") from exc
        return 0
    too_long = f"the count for n={args.n} has over {limit} digits"
    # the count is at least root1**n, root1 = (A + sqrt(A*A - 4B)) / 2, so this
    # refuses only what cannot print; integers only, since A may not fit a float
    a, b = family.recurrence
    if args.n * (math.log10(a + math.isqrt(a * a - 4 * b)) - math.log10(2)) > limit + 1:
        raise ScaleRefused(too_long)
    count = count_words(family, args.n)
    try:
        _emit(str(count))
    except ValueError as exc:  # the interpreter's int-to-text limit
        raise ScaleRefused(too_long) from exc
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from permcodec.wordcount import bound_row_dict, bound_rows_csv, bound_table

    counts = staircase_counts(args.k, args.nmax, budget=args.budget)
    rows = bound_table(args.k, args.nmax, dict(enumerate(counts)))
    try:
        if args.format == "json":
            import json

            lines = [json.dumps([bound_row_dict(r) for r in rows])]
        elif args.format == "csv":
            lines = bound_rows_csv(rows)
        else:
            plain = _plain_cell()
            lines = [
                " ".join(f"{key}={plain(value)}" for key, value in bound_row_dict(r).items())
                for r in rows
            ]
    except ValueError as exc:  # the interpreter's int-to-text limit
        raise ScaleRefused(f"a bound row has over {_digit_limit()} digits") from exc
    for line in lines:
        _emit(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_injection(args.k, args.n, jobs=args.jobs, budget=args.budget)
    if args.format == "json":
        import json

        _emit(json.dumps(report.to_dict()))
    else:
        _emit(f"checked {report.total} avoiders for k={report.k} n={report.n}")
        for field in (
            "round_trip_failures",
            "image_violations",
            "first_letter_violations",
            "duplicate_images",
        ):
            _emit(f"{field}={getattr(report, field)}")
        for category, examples in report.examples.items():
            for text in examples:
                _emit(f"example {category}: {text}")
        _emit("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_scan(args: argparse.Namespace) -> int:
    report = scan_classes(args.k, args.n, budget=args.budget)
    if args.format == "json":
        import json

        _emit(json.dumps(report.to_dict()))
    else:
        plain = _plain_cell()
        for entry in report.classes:
            ratio = "-" if entry.growth_ratio is None else f"{entry.growth_ratio:.6f}"
            _emit(
                f"class {entry.representative} count={entry.count} "
                f"layered={plain(entry.layered)} ratio={ratio}"
            )
        _emit(f"max_count={report.max_count}")
        _emit("max_classes=" + ",".join(report.max_classes))
        _emit(f"layered_dominates={plain(report.layered_dominates)}")
        _emit(f"staircase_is_max={plain(report.staircase_is_max)}")
    return 0


def _plain_cell():
    """The plain-format cell writer: a table cell, or "-" for a missing value."""
    from permcodec.wordcount import format_cell

    return lambda value: "-" if value is None else format_cell(value)


def build_parser() -> argparse.ArgumentParser:
    # the sweeps take --budget, and count and verify --jobs and --cache
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET, metavar="N",
        help="refuse a run estimated over this many search nodes, summed over its engine calls",
    )
    pooled = argparse.ArgumentParser(add_help=False, parents=[sweep])
    pooled.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="threads for verify; count runs in one (output is identical for any J)",
    )
    pooled.add_argument(
        "--cache", metavar="PATH", default=None,
        help=f"count cache file (default: $PERMCODEC_CACHE or ./{DEFAULT_CACHE}); "
        "verify accepts it and reads nothing",
    )

    def add_format(p, *choices):
        p.add_argument("--format", choices=(*choices, "plain"), default="plain",
                       help="output format (default: plain)")

    parser = argparse.ArgumentParser(
        prog="permcodec",
        description="codecs between pattern-avoiding permutations and word pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an avoider")
    p.add_argument("perm", help="permutation text (digits or comma-separated)")
    p.add_argument("--k", type=int, required=True, help="staircase pattern length")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a word pair")
    p.add_argument("w", help="position word")
    p.add_argument("wp", help="value word")
    p.add_argument("--k", type=int, required=True, help="staircase pattern length")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("count", parents=[pooled], help="count avoiders of a pattern")
    p.add_argument("-q", "--pattern", required=True, help="pattern text")
    p.add_argument("-n", "--n", type=int, required=True, help="permutation length")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("words", help="count words in a family")
    p.add_argument("--m", type=int, required=True, help="family index (m >= 2)")
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("-n", "--n", type=int, default=None, help="word length")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("bounds", parents=[sweep], help="avoider/word bound table")
    add_format(p, "json", "csv")
    p.add_argument("--k", type=int, required=True, help="staircase pattern length")
    p.add_argument("--nmax", type=int, required=True, help="last row")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[pooled], help="exhaustive encoder check")
    add_format(p, "json")
    p.add_argument("--k", type=int, required=True, help="staircase pattern length")
    p.add_argument("-n", "--n", type=int, required=True, help="permutation length")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", parents=[sweep], help="count avoiders per class")
    add_format(p, "json")
    p.add_argument("--k", type=int, required=True, help="pattern length")
    p.add_argument("-n", "--n", type=int, required=True, help="permutation length")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (MalformedInput, DomainError) as exc:
        print(f"permcodec: {exc}", file=sys.stderr)
        return 2
    except PreconditionViolated as exc:
        print(f"permcodec: {exc}", file=sys.stderr)
        return 3
    except (ScaleRefused, MemoryError) as exc:  # str(MemoryError()) is empty
        print(f"permcodec: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5
    except CacheIOError as exc:
        print(f"permcodec: {exc}", file=sys.stderr)
        return 6
    _to_stdout(sys.stdout.flush)  # a buffered stdout meets a closed pipe here, not at exit
    return code


if __name__ == "__main__":
    sys.exit(main())
