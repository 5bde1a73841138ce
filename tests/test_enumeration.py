import concurrent.futures
import functools
import multiprocessing
from itertools import permutations
from math import factorial

import pytest

import oracles
from conftest import with_cache
from permcodec import cli, enumeration, kernels
from permcodec.cache import CacheStore
from permcodec.codec import decode_avoider
from permcodec.enumeration import (
    ClassCount,
    ConjectureReport,
    count_avoiders,
    enumerate_avoiders,
    scan_classes,
    verify_injection,
)
from permcodec.errors import DomainError, MalformedInput, NotInImage, ScaleRefused
from permcodec.perms import staircase_pattern


def injective_prefixes(n):
    """The budget's estimate for length n: sum_j n!/(n-j)!."""
    return sum(factorial(n) // factorial(n - j) for j in range(n + 1))


def test_budget_refuses_exactly_past_the_estimate():
    q = staircase_pattern(4)
    estimate = injective_prefixes(6)
    assert estimate == 1957
    assert count_avoiders(q, 6, budget=estimate) == 513
    with pytest.raises(ScaleRefused):
        count_avoiders(q, 6, budget=estimate - 1)
    # a scan pays once per symmetry class: two at k=3, seven at k=4
    assert scan_classes(3, 4, budget=2 * injective_prefixes(4)).max_count == 14
    with pytest.raises(ScaleRefused):
        scan_classes(3, 4, budget=2 * injective_prefixes(4) - 1)
    assert 7 * injective_prefixes(11) <= enumeration.DEFAULT_NODE_BUDGET
    assert scan_classes(4, 11).staircase_is_max
    with pytest.raises(DomainError):
        list(enumerate_avoiders(q, -1))


def test_enumeration_matches_brute_force_in_order():
    for q in [(2, 1, 3), (1, 3, 2, 4), (1, 2)]:
        for n in range(0, 7):
            got = list(enumerate_avoiders(q, n))
            assert got == oracles.brute_avoiders(q, n)


def test_enumeration_edge_cases():
    assert list(enumerate_avoiders((), 3)) == []
    assert list(enumerate_avoiders((2, 1, 3), 0)) == [()]
    with pytest.raises(ScaleRefused):
        list(enumerate_avoiders((2, 1, 3), 50, budget=10**6))


@pytest.mark.parametrize("q", [(5, 9), (1, 1), (2, 3), (1, 2**63)])
def test_patterns_must_be_permutations_of_one_to_k(q):
    # the compiled count trusts its caller, so no other q may reach it
    with pytest.raises(MalformedInput):
        count_avoiders(q, 3)
    with pytest.raises(MalformedInput):
        enumerate_avoiders(q, 3)


def test_count_avoiders_with_and_without_cache(tmp_path):
    q = (2, 1, 3)
    assert count_avoiders(q, 7) == oracles.catalan(7)

    cache = CacheStore.load(tmp_path / "c.jsonl")
    assert count_avoiders(q, 6, cache=cache) == oracles.catalan(6)
    # entries are stored under the symmetry-class representative
    assert cache.get("132", 6) == oracles.catalan(6)
    cache.put("132", 5, 999)  # poison proves reads go through the cache
    assert count_avoiders(q, 5, cache=cache) == 999
    assert count_avoiders((1, 3, 2), 5, cache=cache) == 999


def test_verify_injection_passes_at_desk_scale():
    for k, n in [(3, 6), (4, 6), (5, 6), (6, 6)]:
        report = verify_injection(k, n)
        assert report.passed
        assert report.total == count_avoiders(staircase_pattern(k), n)
        assert report.round_trip_failures == 0
        assert report.image_violations == 0
        assert report.first_letter_violations == 0
        assert report.duplicate_images == 0
        assert all(not v for v in report.examples.values())


def test_verify_injection_handles_the_empty_length():
    report = verify_injection(4, 0)
    assert report.passed and report.total == 1


def test_verify_injection_parallel_matches_serial():
    serial = verify_injection(4, 6)
    parallel = verify_injection(4, 6, jobs=4)
    assert serial == parallel


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_real_pool_under_each_start_method(monkeypatch, method):
    # two real workers, started the way the method starts them (under
    # forkserver a worker's parent is the fork server, not this process)
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context(method),
    )
    monkeypatch.setattr(enumeration.concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    assert verify_injection(4, 6, jobs=2) == verify_injection(4, 6)


class _RecordingPool:
    """Stands in for the process pool: records its size, runs shards in-process.

    The worker initializer is not called: in the test process its watcher
    thread would end the test run if the runner's parent exited.
    """

    sizes: list = []

    def __init__(self, max_workers, **_):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize(
    "cpus, n, jobs, size",
    [
        (4, 6, 10**9, 4),  # clamped to the CPU count
        (4, 3, 10**9, 3),  # clamped to the shard count
        (4, 6, 2, 2),
        (4, 6, 1, None),  # serial: no pool
        (None, 6, 8, None),  # unknown CPU count counts as one
    ],
)
def test_pool_size_is_clamped(monkeypatch, cpus, n, jobs, size):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    pool_module = enumeration.concurrent.futures
    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    report = verify_injection(4, n, jobs=jobs)
    assert report.passed and report.total == len(oracles.brute_avoiders(staircase_pattern(4), n))
    assert _RecordingPool.sizes == ([] if size is None else [size])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "-q", "1324", "-n", "9", "--jobs", "4"],
        ["scan", "--k", "4", "-n", "6"],  # scan and bounds take no --jobs
        ["bounds", "--k", "4", "--nmax", "6"],
    ],
)
def test_counts_run_in_one_process_for_any_jobs(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(enumeration.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    assert cli.main(with_cache(argv, tmp_path / "c.jsonl")) == 0
    assert capsys.readouterr().out
    assert _RecordingPool.sizes == []


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["count", "-q", "1324", "-n", "9"], 1),
        (["scan", "--k", "4", "-n", "6"], 7),  # one per symmetry class
        (["bounds", "--k", "4", "--nmax", "8"], 1),
    ],
)
def test_each_pattern_costs_one_engine_call(monkeypatch, tmp_path, capsys, argv, calls):
    # one call answers every length 0..n: scan reads n and n - 1 from it, bounds every row
    engine = kernels.count_avoiders_dfs
    seen = []
    monkeypatch.setattr(kernels, "count_avoiders_dfs", lambda q, n: seen.append(q) or engine(q, n))
    assert cli.main(with_cache(argv, tmp_path / "c.jsonl")) == 0
    assert capsys.readouterr().out
    assert len(seen) == calls


@pytest.mark.parametrize("victims", [1, 12])
def test_verify_injection_reports_code_collisions(monkeypatch, victims):
    k, n = 4, 5
    avoiders = list(enumerate_avoiders(staircase_pattern(k), n))
    target, collide = avoiders[7], set(avoiders[20:20 + victims])
    real = enumeration._encode

    def colliding(p, k):
        return real(target if p in collide else p, k)

    monkeypatch.setattr(enumeration, "_encode", colliding)
    report = verify_injection(k, n, jobs=1)

    round_trip_failures = 0
    seen, duplicates = {}, []
    for p in avoiders:
        code, text = colliding(p, k), "".join(map(str, p))
        try:
            back = decode_avoider(code, k)
        except NotInImage:
            back = None
        round_trip_failures += back != p
        if code in seen:
            duplicates.append(f"{seen[code]}={text}")
        else:
            seen[code] = text
    assert report.round_trip_failures == round_trip_failures == victims
    assert report.duplicate_images == len(duplicates) == victims
    assert list(report.examples["duplicate"]) == duplicates[:10]
    assert not report.passed


def test_verify_report_dict_shape():
    report = verify_injection(3, 4)
    data = report.to_dict()
    assert data["passed"] is True
    assert data["total"] == 14
    assert set(data["examples"]) == {"round_trip", "image", "first_letter", "duplicate"}


def test_verify_injection_refuses_out_of_range():
    with pytest.raises(DomainError):
        verify_injection(2, 3)
    with pytest.raises(ScaleRefused):
        verify_injection(9, 3)
    with pytest.raises(ScaleRefused):
        verify_injection(4, 30)


def test_scan_classes_lists_every_symmetry_class():
    report = scan_classes(4, 5)
    reps = [c.representative for c in report.classes]
    assert reps == ["1234", "1243", "1324", "1342", "1432", "2143", "2413"]
    layered = {c.representative for c in report.classes if c.layered}
    assert layered == {"1234", "1243", "1324", "1432", "2143"}


def test_scan_classes_matches_brute_counts():
    report = scan_classes(3, 5)
    for entry in report.classes:
        assert entry.count == oracles.catalan(5)
    assert report.layered_dominates and report.staircase_is_max
    assert set(report.max_classes) == {"123", "132"}


def test_scan_classes_frozen_k4_n6():
    report = scan_classes(4, 6)
    counts = {c.representative: c.count for c in report.classes}
    assert counts == {
        "1234": 513, "1243": 513, "1324": 513, "1342": 512,
        "1432": 513, "2143": 513, "2413": 512,
    }
    assert report.max_count == 513
    assert "1324" in report.max_classes
    assert report.layered_dominates
    assert report.staircase_is_max
    previous = scan_classes(4, 5)
    by_rep = {c.representative: c for c in previous.classes}
    for entry in report.classes:
        assert entry.growth_ratio == pytest.approx(
            entry.count / by_rep[entry.representative].count
        )


def test_scan_classes_refuses_out_of_range():
    with pytest.raises(DomainError):
        scan_classes(2, 3)
    with pytest.raises(ScaleRefused):
        scan_classes(6, 3)
    with pytest.raises(ScaleRefused):
        scan_classes(4, 12, budget=10**6)


def test_class_count_is_plain_data():
    entry = ClassCount("132", 5, True, None)
    report = ConjectureReport(3, 3, (entry,), 5, ("132",), True, True)
    assert list(report.to_dict()["classes"]) == [{
        "representative": "132", "count": 5, "layered": True, "growth_ratio": None,
    }]
