import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cli_env, run_cli, with_cache
from permcodec import kernels
from permcodec.cli import main
from permcodec.wordcount import closed_form, count_words, word_counts
from permcodec.words import WordFamily


def test_encode_worked_examples(tmp_path):
    out = run_cli(["encode", "3612745", "--k", "4"], tmp_path)
    assert out.returncode == 0
    assert out.stdout == '{"w":"1212234","wp":"1213422"}\n'
    out = run_cli(["encode", "35412", "--k", "3"], tmp_path)
    assert out.returncode == 0
    assert out.stdout == '{"w":"01101","wp":"01011"}\n'


def test_encode_precondition_failure_reports_witness(tmp_path):
    out = run_cli(["encode", "1324", "--k", "4"], tmp_path)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "contains 1324 at (1,2,3,4)" in out.stderr


def test_encode_parse_error(tmp_path):
    out = run_cli(["encode", "1x24", "--k", "4"], tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""


def test_decode_round_trips(tmp_path):
    out = run_cli(["decode", "1212234", "1213422", "--k", "4"], tmp_path)
    assert (out.returncode, out.stdout) == (0, "3612745\n")
    out = run_cli(["decode", "011200112", "001120112", "--k", "5"], tmp_path)
    assert (out.returncode, out.stdout) == (0, "687912435\n")


def test_decode_not_in_image(tmp_path):
    out = run_cli(["decode", "10", "10", "--k", "3"], tmp_path)
    assert (out.returncode, out.stdout) == (4, "NOT-IN-IMAGE\n")


def test_decode_malformed_words(tmp_path):
    assert run_cli(["decode", "19", "19", "--k", "3"], tmp_path).returncode == 2
    assert run_cli(["decode", "101", "10", "--k", "3"], tmp_path).returncode == 2


def test_count_uses_cwd_cache_by_default(tmp_path):
    out = run_cli(["count", "-q", "1324", "-n", "6"], tmp_path)
    assert (out.returncode, out.stdout) == (0, "513\n")
    cache = tmp_path / "permcodec-cache.jsonl"
    assert cache.exists()
    assert json.loads(cache.read_text()) == {
        "pattern": "1324", "n": 6, "count": "513",
    }


def test_count_cache_flag_beats_environment(tmp_path):
    env_cache = tmp_path / "env.jsonl"
    flag_cache = tmp_path / "flag.jsonl"
    out = run_cli(
        ["count", "-q", "132", "-n", "5", "--cache", str(flag_cache)],
        tmp_path, env_extra={"PERMCODEC_CACHE": str(env_cache)},
    )
    assert (out.returncode, out.stdout) == (0, "42\n")
    assert flag_cache.exists() and not env_cache.exists()

    out = run_cli(
        ["count", "-q", "132", "-n", "5"],
        tmp_path, env_extra={"PERMCODEC_CACHE": str(env_cache)},
    )
    assert (out.returncode, out.stdout) == (0, "42\n")
    assert env_cache.exists()


def test_count_reads_poisoned_cache(tmp_path):
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"pattern":"132","n":4,"count":"999"}\n')
    out = run_cli(["count", "-q", "213", "-n", "4", "--cache", str(cache)], tmp_path)
    assert (out.returncode, out.stdout) == (0, "999\n")


def test_cache_io_failure_exits_six(tmp_path):
    out = run_cli(["count", "-q", "132", "-n", "3", "--cache", str(tmp_path)], tmp_path)
    assert out.returncode == 6
    assert out.stdout == ""


def test_words_command(tmp_path):
    out = run_cli(["words", "--m", "2", "--parity", "even", "-n", "2"], tmp_path)
    assert (out.returncode, out.stdout) == (0, "15\n")
    out = run_cli(["words", "--m", "3", "--parity", "odd"], tmp_path)
    assert (out.returncode, out.stdout) == (0, "odd m=3 (alphabet 0..4)\n")


def test_bounds_csv_shape(tmp_path):
    out = run_cli(["bounds", "--k", "4", "--nmax", "6", "--format", "csv"], tmp_path)
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "k,n,count,word_bound_sq,cap,ok_word,ok_cap"
    assert len(lines) == 8  # header + nmax+1 rows
    assert all(line.endswith("true,true") for line in lines[1:])
    assert lines[5] == "4,4,23,3136,1679616,true,true"


def test_bounds_json(tmp_path):
    out = run_cli(["bounds", "--k", "3", "--nmax", "2", "--format", "json"], tmp_path)
    rows = json.loads(out.stdout)
    assert rows[2] == {
        "k": 3, "n": 2, "count": 2, "word_bound_sq": 4,
        "cap": "6561/16", "ok_word": True, "ok_cap": True,
    }
    assert rows[0]["word_bound_sq"] is None


def test_verify_command(tmp_path):
    out = run_cli(["verify", "--k", "4", "-n", "5"], tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "checked 103 avoiders for k=4 n=5"
    assert out.stdout.splitlines()[-1] == "PASS"

    out = run_cli(["verify", "--k", "3", "-n", "5", "--format", "json"], tmp_path)
    report = json.loads(out.stdout)
    assert report["passed"] is True and report["total"] == 42


def test_scan_command(tmp_path):
    out = run_cli(["scan", "--k", "3", "-n", "5", "--format", "json"], tmp_path)
    report = json.loads(out.stdout)
    assert [c["count"] for c in report["classes"]] == [42, 42]
    assert report["layered_dominates"] and report["staircase_is_max"]


def test_scale_refusal_exits_five(tmp_path):
    out = run_cli(["count", "-q", "1324", "-n", "14", "--budget", "1000"], tmp_path)
    assert out.returncode == 5
    assert out.stdout == ""
    assert "budget" in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["count", "-q", "132", "-n", "-1"],
        ["verify", "--k", "4", "-n", "-2"],
        ["scan", "--k", "3", "-n", "-1"],
        ["bounds", "--k", "4", "--nmax", "-1"],
    ],
)
def test_negative_lengths_exit_two_before_touching_the_cache(tmp_path, args):
    # a directory as the cache file: reading or appending to it would exit 6
    out = run_cli(with_cache(args, tmp_path), tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "non-negative" in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_huge_length_is_refused_without_summing_the_estimate(tmp_path):
    out = run_cli(["count", "-q", "132", "-n", "1000000"], tmp_path, timeout=10)
    assert out.returncode == 5
    assert out.stdout == ""
    assert "budget" in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_bounds_refuses_a_huge_last_row_before_counting(tmp_path):
    out = run_cli(["bounds", "--k", "4", "--nmax", "1000000"], tmp_path, timeout=10)
    assert out.returncode == 5
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("n", [8000, 200000, 10**12])
def test_words_refuses_counts_too_long_to_print(tmp_path, n):
    out = run_cli(["words", "--m", "2", "--parity", "even", "-n", str(n)], tmp_path, timeout=5)
    assert out.returncode == 5
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_words_still_prints_long_counts(tmp_path):
    out = run_cli(["words", "--m", "2", "--parity", "even", "-n", "7000"], tmp_path)
    assert out.returncode == 0
    assert out.stdout == f"{count_words(WordFamily(2, 'even'), 7000)}\n"


def test_words_prints_every_count_below_the_digit_limit(capsys):
    # at the interpreter's smallest digit limit, each n around the boundary
    # prints its exact count or exits 5, whichever side of the limit it is on
    limit = 640
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for family in (WordFamily(2, "even"), WordFamily(2, "odd"), WordFamily(4, "odd")):
            first = int((limit - 20) / math.log10(closed_form(family).root1))
            counts = word_counts(family, first + 120)
            codes = set()
            for n in range(first, first + 120):
                code = main(["words", "--m", str(family.m), "--parity", family.parity,
                             "-n", str(n)])
                out = capsys.readouterr().out
                if counts[n] < 10**limit:
                    assert (code, out) == (0, f"{counts[n]}\n")
                else:
                    assert (code, out) == (5, "")
                codes.add(code)
            assert codes == {0, 5}
    finally:
        sys.set_int_max_str_digits(saved)


#: the pattern 1,2,...,5000: far longer than any permutation counted here
LONG_PATTERN = ",".join(str(v) for v in range(1, 5001))
HUGE_M = 10**300
#: the most digits argparse reads; the top letter of the family for this m,
#: or for this k, has one digit more
TOP_DIGITS_M = 9 * 10**4299


@pytest.mark.parametrize(
    "args,code,stdout",
    [
        pytest.param(["encode", "1", "--k", "1000000"], 0, '{"w":"1","wp":"1"}\n',
                     id="encode-k1e6"),
        # the same code as at k=1000 and k=1001: the top levels letter nothing
        pytest.param(["encode", "3612745", "--k", str(10**20 + 1)], 0,
                     '{"w":"1212245","wp":"1214522"}\n', id="encode-k1e20"),
        # the avoidance check on a long input reads one staircase floor
        pytest.param(["encode", ",".join(str(v) for v in range(1, 2001)), "--k", "4"], 0,
                     '{"w":"1' + "2" * 1999 + '","wp":"1' + "2" * 1999 + '"}\n',
                     id="encode-identity-2000"),
        pytest.param(["decode", "0", "0", "--k", "1000001"], 4, "NOT-IN-IMAGE\n",
                     id="decode-k1e6"),
        pytest.param(["decode", f"{10**20 - 1},", f"{10**20 - 1},", "--k", str(10**20)], 4,
                     "NOT-IN-IMAGE\n", id="decode-huge-letter"),
        pytest.param(["count", "-q", LONG_PATTERN, "-n", "2"], 0, "2\n", id="count-long-pattern"),
        pytest.param(["bounds", "--k", "10000", "--nmax", "1", "--format", "csv"], 0,
                     "k,n,count,word_bound_sq,cap,ok_word,ok_cap\n"
                     "10000,0,1,,1,true,true\n10000,1,1,1,225000000,true,true\n",
                     id="bounds-k1e4"),
        pytest.param(["bounds", "--k", str(10**800), "--nmax", "3"], 5, "", id="bounds-long-row"),
        pytest.param(["words", "--m", str(HUGE_M), "--parity", "odd", "-n", "40"], 5, "",
                     id="words-m1e300-n40"),
        pytest.param(["words", "--m", str(HUGE_M), "--parity", "odd", "-n", "1"], 0,
                     f"{3 * HUGE_M - 4}\n", id="words-m1e300-n1"),
        pytest.param(["words", "--m", str(TOP_DIGITS_M), "--parity", "odd"], 5, "",
                     id="words-top-letter-too-long"),
        pytest.param(["decode", "0", "0", "--k", str(TOP_DIGITS_M)], 2, "",
                     id="decode-top-letter-too-long"),
    ],
)
def test_huge_parameters_end_quickly(tmp_path, args, code, stdout):
    out = run_cli(with_cache(args, tmp_path / "c.jsonl"), tmp_path, timeout=5)
    assert (out.returncode, out.stdout) == (code, stdout)
    assert "Traceback" not in out.stderr


#: argv of the subcommands that take no --cache; each exits 0 as it stands
_NO_CACHE = {
    "encode": ["encode", "35412", "--k", "3"],
    "decode": ["decode", "01101", "01011", "--k", "3"],
    "words": ["words", "--m", "2", "--parity", "even", "-n", "2"],
    "bounds": ["bounds", "--k", "3", "--nmax", "4"],
    "scan": ["scan", "--k", "3", "-n", "4"],
}


@pytest.mark.parametrize(
    "argv",
    [
        *([*_NO_CACHE[command], flag, value] for command in ("encode", "decode", "words")
          for flag, value in (("--format", "json"), ("--budget", "1000"), ("--jobs", "2"))),
        ["count", "-q", "132", "-n", "5", "--format", "json"],
        ["verify", "--k", "3", "-n", "4", "--format", "csv"],
        [*_NO_CACHE["scan"], "--format", "csv"],
        [*_NO_CACHE["scan"], "--jobs", "2"],
        [*_NO_CACHE["bounds"], "--jobs", "2"],
        *([*argv, "--cache", "c.jsonl"] for argv in _NO_CACHE.values()),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_a_flag_the_subcommand_does_not_read_exits_two(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)  # where a relative or the default cache file would go
    with pytest.raises(SystemExit) as exc:
        main(with_cache(argv, tmp_path / "c.jsonl"))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "-q", "1324", "-n", "10"],
        ["scan", "--k", "4", "-n", "6"],
        ["bounds", "--k", "4", "--nmax", "6"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_count_out_of_memory_exits_five(monkeypatch, tmp_path, capsys, argv):
    def exhausted(q, n):
        raise MemoryError

    monkeypatch.setattr(kernels, "count_avoiders_dfs", exhausted)
    assert main(with_cache(argv, tmp_path / "c.jsonl")) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert "out of memory" in err
    assert "Traceback" not in err


def test_bounds_counts_every_row_below_a_huge_k(tmp_path):
    # a pattern longer than the permutation never occurs: every row counts n!
    out = run_cli(["bounds", "--k", str(10**11), "--nmax", "2", "--format", "json"],
                  tmp_path, timeout=5)
    assert out.returncode == 0
    assert [row["count"] for row in json.loads(out.stdout)] == [1, 1, 2]


LENGTHS = [-1, *range(7), 10**6, 10**20, 10**20 + 1]
PERM_TEXTS = ["", "1", "21", "35412", "3612745", "1324", "1,2,3,", "10,1,2,3,4,5,6,7,8,9",
              "1x24", "0", "1,1", "-1", "1,,2", ","]
WORD_TEXTS = ["", "0", "1", "10", "10,", "01101", "01011", "1212234", "1213422",
              f"{10**20 - 1},", "1a", "-1", "1,,2"]


#: the output formats of the subcommands that take --format
FORMATS = {"bounds": ["plain", "json", "csv"], "verify": ["plain", "json"], "scan": ["plain", "json"]}


@st.composite
def cli_argv(draw):
    """argv for one of the seven subcommands, drawn from fixed value lists."""
    def value(values):
        return str(draw(st.sampled_from(values)))

    command = draw(st.sampled_from(
        ["encode", "decode", "count", "words", "bounds", "verify", "scan"]))
    if command == "encode":
        argv = [command, value(PERM_TEXTS), "--k", value(LENGTHS)]
    elif command == "decode":
        argv = [command, value(WORD_TEXTS), value(WORD_TEXTS), "--k", value(LENGTHS)]
    elif command == "count":
        argv = [command, "-q", value([*PERM_TEXTS, LONG_PATTERN]), "-n", value(LENGTHS)]
    elif command == "words":
        argv = [command, "--m", value([*LENGTHS, HUGE_M]), "--parity", value(["odd", "even"])]
        if draw(st.booleans()):
            argv += ["-n", value(LENGTHS)]
    elif command == "bounds":
        argv = [command, "--k", value(LENGTHS), "--nmax", value(LENGTHS)]
    else:
        argv = [command, "--k", value(LENGTHS), "-n", value(LENGTHS)]
    flags = [("--format", FORMATS[command])] if command in FORMATS else []
    if command in ("count", "verify"):
        flags += [("--jobs", [1, 2, 10**9])]
    if command in ("count", "bounds", "verify", "scan"):
        flags += [("--budget", [-1, 0, 1000, 10**6, 10**9])]  # at most the default
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, value(values)]
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=cli_argv(), cache=st.sampled_from(["file", "dir"]))
@example(argv=["encode", "1", "--k", "1000000"], cache="file")
@example(argv=["decode", f"{10**20 - 1},", f"{10**20 - 1},", "--k", str(10**20)], cache="file")
@example(argv=["count", "-q", LONG_PATTERN, "-n", "2"], cache="file")
@example(argv=["bounds", "--k", str(10**20 + 1), "--nmax", "2"], cache="file")
@example(argv=["words", "--m", str(HUGE_M), "--parity", "odd", "-n", "4"], cache="dir")
@example(argv=["words", "--m", str(TOP_DIGITS_M), "--parity", "odd"], cache="file")
@example(argv=["decode", "0", "0", "--k", str(TOP_DIGITS_M)], cache="file")
def test_every_argv_ends_in_a_documented_exit_code(tmp_path_factory, argv, cache):
    cwd = tmp_path_factory.mktemp("argv")
    path = cwd / "c.jsonl" if cache == "file" else cwd
    out = run_cli(with_cache(argv, path), cwd, timeout=10)
    assert out.returncode in range(7)
    assert "Traceback" not in out.stderr


def _live_session_members(sid):
    """Pids of the processes in session ``sid`` that have not exited."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # fields after the parenthesised command: state ppid pgrp session ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while the scan was running
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


def _eventually(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


#: runs the CLI's main() after fixing the multiprocessing start method to argv[1]
_CLI_WITH_START_METHOD = (
    "import multiprocessing, sys\n"
    "from permcodec.cli import main\n"
    "multiprocessing.set_start_method(sys.argv[1])\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="reads sessions from /proc and needs a two-worker pool",
)
@pytest.mark.parametrize("method", [None, "fork", "forkserver", "spawn"])
def test_pool_workers_exit_when_the_cli_is_killed(tmp_path, method):
    verify = ["verify", "--k", "6", "-n", "10", "--jobs", "2"]  # runs for minutes
    if method is None:  # the interpreter's default start method
        argv = [sys.executable, "-m", "permcodec", *verify]
    else:
        argv = [sys.executable, "-c", _CLI_WITH_START_METHOD, method, *verify]
    # the CLI and its two workers, plus the fork server that starts them
    members = 4 if method == "forkserver" else 3
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=tmp_path, env=cli_env(), start_new_session=True,
    )
    try:
        assert _eventually(
            lambda: len(_live_session_members(proc.pid)) >= members, 60
        ), "the two pool workers never started"
        proc.kill()  # the parent only; its workers stay in the session
        proc.wait()
        assert _eventually(lambda: not _live_session_members(proc.pid), 5), (
            f"workers still running: {_live_session_members(proc.pid)}"
        )
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--k", "4", "-n", "6", "--format", "json"],
        ["verify", "--k", "5", "-n", "6"],
        ["count", "-q", "1324", "-n", "7"],
        ["count", "-q", "21435", "-n", "8"],
    ],
)
def test_output_bytes_do_not_depend_on_jobs(tmp_path, args):
    one = run_cli([*args, "--jobs", "1"], tmp_path)
    eight = run_cli([*args, "--jobs", "8"], tmp_path)
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout
