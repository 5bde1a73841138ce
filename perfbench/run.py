"""Seeded benchmark for permcodec: CLI sweeps end to end, layers traced from outside.

Run from the repository root:

    python3 perfbench/run.py --workload verify-k6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

--trace 0 measures the end-to-end metrics: each CLI command runs as its own
process (interpreter start included) in a closed loop, one command at a
time. --trace 1 runs the same work in-process with --jobs 1, plain and with
every public function wrapped (tracer.py), and reports per-layer metrics. Every output is checked against oracles.py and golden.json; the
last stdout line is one JSON object with correct/attempted/failed/metrics.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracles
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
GOLDEN = BENCH_DIR / "golden.json"

#: end-to-end metric -> unit (BENCHMARK.json lists the same names)
E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "avoiders_per_s": "1/s",
    "hit_wall_s": "s",
    "setup_s": "s",
}

COMMAND_TIMEOUT_S = 150
#: short launches (import, warm count) per round
BATCH = 3
#: in-process cached counts per codec-long batch
INPROC_PROBES = 8


def jobs_for_pool() -> int:
    """Workers for the pooled commands: two, but never more than the cores."""
    return max(1, min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# building and launching the program


def locate_program() -> None:
    if not (SRC / "permcodec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no permcodec sources under {SRC}; run from a full checkout")


def build_once() -> None:
    """Build the package's compiled parts in place, once per checkout.

    setup.py compiles the search-kernel extension when its toolchain is
    present and does nothing otherwise; either way the stamp file keeps
    later runs from paying for the build again.
    """
    stamp = BUILD_DIR / "build.stamp"
    if stamp.exists() or not (ROOT / "setup.py").is_file():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(BUILD_DIR / "ext")],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=800,
    )
    stamp.write_text("built\n")


def child_env() -> dict[str, str]:
    """Environment for every launch: the checkout's src first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


@dataclass
class Launch:
    rc: int
    stdout: str
    wall: float
    cpu: float
    rss_mb: float


def launch(args: list[str], cwd: Path, env: dict[str, str]) -> Launch:
    """Run the interpreter with args; time it and take the rusage of its tree.

    wait4 reports the child together with every descendant it waited for,
    so pool workers count towards CPU time and peak memory.
    """
    out_path = cwd / "stdout.txt"
    with open(out_path, "w+b") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], COMMAND_TIMEOUT_S)[0]:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return Launch(proc.returncode, stdout, wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def describe(cwd: Path, env: dict[str, str]) -> dict:
    """Backend, Python version and core count, as a launched command sees them."""
    probe = launch(["-c", "import os, permcodec, platform; print(permcodec.kernel_backend(),"
                    " platform.python_version(), os.cpu_count())"], cwd, env)
    if probe.rc != 0:
        sys.exit("perfbench: `import permcodec` failed:\n"
                 + (cwd / "stderr.txt").read_text())
    backend, python, nproc = probe.stdout.split()
    return {"backend": backend, "python": python, "nproc": int(nproc)}


# ---------------------------------------------------------------------------
# inputs and checks shared by both modes


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: Path
    golden: dict
    fixture: Path
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def fresh_cache(self) -> Path:
        path = self.tmp / "cache.jsonl"
        shutil.copyfile(self.fixture, path)
        return path


@functools.cache
def staircase_avoiders(k: int, n: int) -> int:
    return oracles.naive_avoider_count(oracles.staircase(k), n)


def check_verify(ctx: Context, stdout: str, k: int, n: int) -> int:
    """Check a plain `verify` report; return the avoiders it must have checked."""
    total = staircase_avoiders(k, n)
    ctx.check(stdout == ctx.golden["stdout"][f"verify --k {k} -n {n}"],
              f"verify k={k} n={n}: stdout differs from golden")
    ctx.check(stdout.startswith(f"checked {total} avoiders for k={k} n={n}\n")
              and stdout.endswith("PASS\n"),
              f"verify k={k} n={n}: not PASS over {total} avoiders")
    return total


def pair_line(k: int, pair) -> str:
    return f"{k} {','.join(map(str, pair.w))} {','.join(map(str, pair.wp))}\n"


def light_codec_inputs() -> list[tuple[tuple[int, ...], int]]:
    rng = random.Random("light")
    return [(gen.staircase_avoider(rng, k, rng.randint(16, 24)), k) for k in (4, 5, 6) * 2]


# ---------------------------------------------------------------------------
# end-to-end mode: CLI commands as processes, codec-long in-process


@dataclass
class Round:
    """One heavy operation plus the round's batches of short launches.

    Every metric is the median of all its samples in the run, so rounds
    spread each kind of sample over the whole run and a burst of contention
    on a shared machine moves a few samples, not the median.
    """

    wall: float
    cpu: float
    rss_mb: float
    avoiders: int
    hit_walls: list[float]
    setups: list[float]


@dataclass
class CliWorkload:
    argv: list[str]
    probe: list[str]
    probe_stdout: str
    avoiders: Callable[[Context, str], int]


def _count_avoiders(ctx: Context, stdout: str) -> int:
    ctx.check(stdout == f"{oracles.A061552[10]}\n", "count 1324 n=10: not A061552(10)")
    return oracles.A061552[10]


def cli_workloads(jobs: int) -> dict[str, CliWorkload]:
    return {
        "verify-k6": CliWorkload(["verify", "--k", "6", "-n", "7", "--jobs", "1"],
                                 ["count", "-q", "4231", "-n", "9"], f"{oracles.A061552[9]}\n",
                                 lambda c, out: check_verify(c, out, 6, 7)),
        "count-1324": CliWorkload(["count", "-q", "1324", "-n", "10", "--jobs", str(jobs)],
                                  ["count", "-q", "4231", "-n", "10"],
                                  f"{oracles.A061552[10]}\n", _count_avoiders),
    }


def setup_batch(ctx: Context, env: dict[str, str]) -> list[float]:
    """Times of BATCH launches of `python -c "import permcodec"`."""
    times = []
    for _ in range(BATCH):
        result = launch(["-c", "import permcodec"], ctx.tmp, env)
        ctx.check(result.rc == 0, f"import permcodec: exit {result.rc}")
        times.append(result.wall)
    return times


def cli_round(ctx: Context, workload: CliWorkload, env: dict[str, str]) -> Round:
    """The heavy command, then warm count queries on the same cache file."""
    cache = str(ctx.fresh_cache())
    heavy = launch(["-m", "permcodec", *workload.argv, "--cache", cache], ctx.tmp, env)
    avoiders = 0
    if ctx.check(heavy.rc == 0, f"{' '.join(workload.argv)}: exit {heavy.rc}"):
        avoiders = workload.avoiders(ctx, heavy.stdout)
    hit_walls = []
    for _ in range(BATCH):
        probe = launch(["-m", "permcodec", *workload.probe, "--cache", cache], ctx.tmp, env)
        ctx.check(probe.rc == 0 and probe.stdout == workload.probe_stdout,
                  f"{' '.join(workload.probe)}: exit {probe.rc}, stdout {probe.stdout!r}")
        hit_walls.append(probe.wall)
    return Round(heavy.wall, heavy.cpu, heavy.rss_mb, avoiders, hit_walls,
                 setup_batch(ctx, env))


def codec_round(ctx: Context, inputs, digest: str, env: dict[str, str],
                pair_s: list[float]) -> Round:
    """Round-trip every codec-long input; cached counts at evenly spaced points."""
    from permcodec import codec
    from permcodec.cache import CacheStore
    from permcodec.enumeration import count_avoiders

    lines = []
    wall = cpu = 0.0
    hit_walls = []
    every = len(inputs) // INPROC_PROBES
    for i, (p, k) in enumerate(inputs):
        if i % every == 0 and i // every < INPROC_PROBES:
            start = time.perf_counter()
            count = count_avoiders((4, 2, 3, 1), 9, cache=CacheStore.load(ctx.fixture))
            hit_walls.append(time.perf_counter() - start)
            ctx.check(count == oracles.A061552[9], "codec-long: cached count is not A061552(9)")
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            pair = codec.encode_avoider(p, k)
            back = codec.decode_avoider(pair, k)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc(limit=3, file=sys.stderr)
            back = pair = None
        took = time.perf_counter() - start
        cpu += time.process_time() - cpu0
        wall += took
        pair_s.append(took)
        if ctx.check(back == p and oracles.valid_code(pair.w, pair.wp, k),
                     f"codec-long k={k} n={len(p)}: bad round trip or code"):
            lines.append(pair_line(k, pair))
    ctx.check(hashlib.sha256("".join(lines).encode()).hexdigest() == digest,
              "codec-long: pair digest differs from golden")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Round(wall, cpu, rss_mb, len(inputs), hit_walls, setup_batch(ctx, env))


def loop(ctx: Context, one_round: Callable[[], Round]) -> list[Round]:
    """Closed loop: rounds back to back while the next one fits the window."""
    rounds, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > ctx.seconds:
            return rounds


def end_to_end(name: str, ctx: Context, env: dict[str, str]) -> dict:
    pair_s: list[float] = []
    if name == "codec-long":
        inputs = gen.codec_inputs(ctx.seed)
        digest = ctx.golden["codec_digests"][ctx.seed % gen.INPUT_SETS]
        rounds = loop(ctx, lambda: codec_round(ctx, inputs, digest, env, pair_s))
    else:
        workload = cli_workloads(jobs_for_pool())[name]
        rounds = loop(ctx, lambda: cli_round(ctx, workload, env))
    ctx.samples = {key: [getattr(r, key) for r in rounds] for key in ("wall", "cpu", "rss_mb")}
    ctx.samples["rate"] = [r.avoiders / r.wall for r in rounds]
    ctx.samples["hit_wall"] = [x for r in rounds for x in r.hit_walls]
    ctx.samples["setup"] = [x for r in rounds for x in r.setups]
    metrics = {metric: statistics.median(ctx.samples[key]) for metric, key in (
        ("wall_s", "wall"), ("cpu_s", "cpu"), ("peak_rss_mb", "rss_mb"),
        ("avoiders_per_s", "rate"), ("hit_wall_s", "hit_wall"), ("setup_s", "setup"))}
    print(f"rounds {len(rounds)}")
    if pair_s:
        cuts = statistics.quantiles(pair_s, n=20)
        print(f"pair_ms_p50 {1e3 * statistics.median(pair_s):.4f} ms  pair_ms_p95 {1e3 * cuts[-1]:.4f} ms"
              f"  ({len(pair_s)} round trips)")
    return metrics


# ---------------------------------------------------------------------------
# traced mode: the same work in-process, plain and wrapped


def cli_call(argv: list[str]) -> tuple[int, str]:
    from permcodec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@dataclass
class Op:
    """One in-process operation of a traced run; pooled ops call count_avoiders."""

    name: str
    run: Callable[[Context, int], None]
    pooled: bool = False


def _op_cli(argv: list[str], check: Callable[[Context, str], object]):
    def run(ctx: Context, jobs: int) -> None:
        rc, out = cli_call([*argv, "--jobs", str(jobs), "--cache", str(ctx.fresh_cache())])
        if ctx.check(rc == 0, f"{' '.join(argv)}: exit {rc}"):
            check(ctx, out)
    return run


def _op_count_pair(q_cold: str, q_warm: str, n: int, expected: int):
    def run(ctx: Context, jobs: int) -> None:
        cache = str(ctx.fresh_cache())
        for q, flags in ((q_cold, ["--jobs", str(jobs)]), (q_warm, [])):
            rc, out = cli_call(["count", "-q", q, "-n", str(n), *flags, "--cache", cache])
            ctx.check(rc == 0 and out == f"{expected}\n", f"count {q} n={n}: {out!r}")
    return run


def _op_codec(inputs, digest: str):
    def run(ctx: Context, jobs: int) -> None:
        from permcodec import codec

        lines = []
        for p, k in inputs:
            pair = codec.encode_avoider(p, k)
            ctx.check(codec.decode_avoider(pair, k) == p
                      and oracles.valid_code(pair.w, pair.wp, k),
                      f"codec k={k} n={len(p)}: bad round trip or code")
            lines.append(pair_line(k, pair))
        ctx.check(hashlib.sha256("".join(lines).encode()).hexdigest() == digest,
                  "codec: pair digest differs from golden")
    return run


def traced_ops(name: str, ctx: Context) -> list[Op]:
    """The workload's heavy operation plus a light pass over every layer."""
    heavy = {
        "verify-k6": lambda: Op("verify --k 6 -n 7", _op_cli(
            ["verify", "--k", "6", "-n", "7"],
            lambda c, out: check_verify(c, out, 6, 7))),
        "count-1324": lambda: Op("count 1324/4231 -n 10", _op_count_pair(
            "1324", "4231", 10, oracles.A061552[10]), pooled=True),
        "codec-long": lambda: Op("codec-long batch", _op_codec(
            gen.codec_inputs(ctx.seed), ctx.golden["codec_digests"][ctx.seed % gen.INPUT_SETS])),
    }[name]()
    light = [
        Op("verify --k 5 -n 5", _op_cli(
            ["verify", "--k", "5", "-n", "5"],
            lambda c, out: check_verify(c, out, 5, 5))),
        Op("count 1234/4321 -n 7", _op_count_pair(
            "1234", "4321", 7, oracles.gessel_1234(7)), pooled=True),
        Op("codec light", _op_codec(light_codec_inputs(), ctx.golden["light_digest"])),
    ]
    return [heavy, *light]


def run_ops(ctx: Context, ops: list[Op], jobs: int) -> float:
    start = time.perf_counter()
    for op in ops:
        try:
            op.run(ctx, jobs)
        except (Exception, SystemExit):  # one failed operation; keep measuring
            traceback.print_exc(limit=3, file=sys.stderr)
            ctx.check(False, f"{op.name}: raised")
    return time.perf_counter() - start


def timed_pass(ctx: Context, ops: list[Op], jobs: int, points=()) -> tuple[float, tracer.Tracer]:
    spans = tracer.Tracer()
    spans.install(points)
    try:
        return run_ops(ctx, ops, jobs), spans
    finally:
        spans.uninstall()


def traced(name: str, ctx: Context) -> dict:
    """Plain and traced passes in the order plain, traced, traced, plain, so a
    steady drift of the machine's speed cancels out of the overhead."""
    ops = traced_ops(name, ctx)
    plain_1, _ = timed_pass(ctx, ops, 1)
    traced_1, spans = timed_pass(ctx, ops, 1, tracer.FULL_POINTS)
    traced_2, _ = timed_pass(ctx, ops, 1, tracer.FULL_POINTS)
    plain_2, _ = timed_pass(ctx, ops, 1)
    _, pooled = timed_pass(ctx, [op for op in ops if op.pooled], jobs_for_pool(),
                           tracer.COUNT_POINTS)
    overhead_s = (traced_1 + traced_2 - plain_1 - plain_2) / 2
    print(f"passes plain_s={plain_1:.4f},{plain_2:.4f} traced_s={traced_1:.4f},{traced_2:.4f}"
          f" ops={','.join(op.name for op in ops)}")
    return tracer.layer_metrics(spans, traced_1, pooled, jobs_for_pool(), overhead_s)


# ---------------------------------------------------------------------------
# driver


WORKLOADS = ("verify-k6", "count-1324", "codec-long")


def run_workload(name: str, args, env: dict[str, str], info: dict, tmp: Path) -> dict:
    golden = json.loads(GOLDEN.read_text())
    ctx = Context(seed=args.seed, seconds=args.seconds, tmp=tmp, golden=golden,
                  fixture=tmp / "fixture.jsonl")
    gen.write_fixture(args.seed, ctx.fixture)
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{key}={value}" for key, value in info.items()))
    if args.trace:
        values = traced(name, ctx)
        units = tracer.LAYER_UNITS
    else:
        values = end_to_end(name, ctx, env)
        units = E2E_UNITS
    for metric, value in values.items():
        print(f"{metric} {value!r} {units[metric]} backend={info['backend']}")
    print(f"error_rate {ctx.failed / max(ctx.attempted, 1)!r} ({ctx.failed} failed"
          f" / {ctx.attempted} attempted)")
    for note in ctx.notes:
        print(f"FAILED {note}", file=sys.stderr)
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace, "env": info, **result,
                                     "samples": ctx.samples}) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="append each result, with its environment, as a JSON line")
    args = parser.parse_args(argv)

    locate_program()
    build_once()
    sys.path.insert(0, str(SRC))
    env = child_env()
    tmp = BUILD_DIR / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        info = describe(tmp, env)
        info["jobs"] = jobs_for_pool()
        if args.trace or args.workload in ("codec-long", "all"):
            import permcodec

            if permcodec.kernel_backend() != info["backend"]:
                sys.exit("perfbench: in-process backend differs from the launched one")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args, env, info, tmp) for name in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
