import concurrent.futures
import functools
import importlib.util
import multiprocessing
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import cli_env
from permcodec import _pure, enumeration, kernels
from permcodec.enumeration import count_avoiders

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def ext(tmp_path_factory):
    """The compiled kernel, built from ``_ext.c`` into a temporary directory.

    Skips the test when the build leaves no module, as it does without a C
    compiler or ``Python.h`` (the extension is optional).
    """
    out = tmp_path_factory.mktemp("ext")
    if (ROOT / "setup.py").is_file():
        subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
            cwd=ROOT, capture_output=True, timeout=300,
        )
    built = sorted((out / "lib").glob("permcodec/_ext.*"))
    if not built:
        pytest.skip("the C extension did not build")
    spec = importlib.util.spec_from_file_location("permcodec._ext", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    return _pure if request.param == "pure" else request.getfixturevalue("ext")


def perms(max_n=8, min_n=0):
    return (
        st.integers(min_n, max_n)
        .flatmap(lambda n: st.permutations(tuple(range(1, n + 1))))
        .map(tuple)
    )


def backend_seen_by_a_child(env_extra, ext_path=None):
    code = (
        "import importlib.util, sys\n"
        "if len(sys.argv) > 1:\n"
        "    spec = importlib.util.spec_from_file_location('permcodec._ext', sys.argv[1])\n"
        "    sys.modules['permcodec._ext'] = importlib.util.module_from_spec(spec)\n"
        "from permcodec import kernels\n"
        "print(kernels.BACKEND)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *([ext_path] if ext_path else [])],
        capture_output=True, text=True, env=cli_env(env_extra), check=True,
    )
    return out.stdout.strip()


def test_compiled_backend_is_selected_by_default(ext):
    assert backend_seen_by_a_child({"PERMCODEC_PURE": ""}, ext.__file__) == "compiled"
    assert backend_seen_by_a_child({"PERMCODEC_PURE": "1"}, ext.__file__) == "pure"


def test_env_variable_forces_pure_backend():
    assert backend_seen_by_a_child({"PERMCODEC_PURE": "1"}) == "pure"


@given(p=perms(), q=perms(max_n=4))
def test_first_occurrence_matches_brute_force(p, q):
    brute = oracles.brute_occurrences(p, q)
    want = tuple(i - 1 for i in brute[0]) if brute else None
    if len(q) == 0:
        want = ()
    assert _pure.first_occurrence(p, q) == want


def test_haystack_values_need_not_be_contiguous():
    # callers pass raw subsequences; only relative order may matter
    assert _pure.first_occurrence((9, 2, 14), (2, 1, 3)) == (0, 1, 2)


def test_count_matches_brute_force(impl):
    for k in range(0, 5):
        for q in permutations(range(1, k + 1)):
            for n in range(0, 7):
                want = oracles.brute_avoiders(q, n)
                assert impl.count_avoiders_dfs(q, n) == len(want)
                assert list(_pure.avoiders(q, n)) == want
                if n:
                    shards = [p for f in range(1, n + 1) for p in _pure.avoiders(q, n, f)]
                    assert shards == want


def test_count_edge_cases(impl):
    assert impl.count_avoiders_dfs((), 3) == 0
    assert impl.count_avoiders_dfs((1,), 3) == 0
    assert impl.count_avoiders_dfs((1,), 0) == 1
    assert impl.count_avoiders_dfs((1, 2), 0) == 1
    assert impl.count_avoiders_dfs((), 0) == 0


def test_first_entry_shards_partition_the_count(impl):
    q = (1, 3, 2, 4)
    for n in range(1, 7):
        total = impl.count_avoiders_dfs(q, n)
        assert total == sum(
            impl.count_avoiders_dfs(q, n, first) for first in range(1, n + 1)
        )


def test_backends_agree_on_counts(ext):
    for k in range(0, 6):
        for q in permutations(range(1, k + 1)):
            for n in range(0, 8):
                firsts = Counter(p[:1] for p in _pure.avoiders(q, n))
                assert ext.count_avoiders_dfs(q, n) == firsts.total()
                for first in range(1, n + 1):
                    assert ext.count_avoiders_dfs(q, n, first) == firsts[(first,)]


def test_compiled_count_refuses_a_total_that_could_wrap(ext, monkeypatch):
    # 21! > 2**63, so the 64-bit walk stops at n = 20 and kernels walks in Python
    with pytest.raises(OverflowError):
        ext.count_avoiders_dfs((1, 3, 2, 4), 21)
    monkeypatch.setattr(kernels, "_impl", ext)
    monkeypatch.setattr(_pure, "count_avoiders_dfs", lambda q, n, first=0: "pure")
    assert kernels.count_avoiders_dfs((1, 3, 2, 4), 21) == "pure"
    assert kernels.count_avoiders_dfs((1, 2), 20) == 1


def test_a_pattern_longer_than_n_counts_as_a_factorial(impl, monkeypatch):
    monkeypatch.setattr(kernels, "_impl", impl)
    start = time.perf_counter()
    assert count_avoiders(tuple(range(1, 31)), 11) == factorial(11)
    assert time.perf_counter() - start < 1


def test_compiled_count_does_not_depend_on_jobs(ext, monkeypatch):
    # forked workers inherit the patches, so a shard that fell back to the
    # pure walk would fail
    monkeypatch.setattr(kernels, "_impl", ext)
    monkeypatch.setattr(_pure, "count_avoiders_dfs", None)
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context("fork"),
    )
    monkeypatch.setattr(enumeration.concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    q = (1, 3, 2, 4)
    assert count_avoiders(q, 9, jobs=2) == count_avoiders(q, 9, jobs=1) == 94776
