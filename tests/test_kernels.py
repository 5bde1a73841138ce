import os
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import cli_env
from permcodec import _pure, kernels

try:
    from permcodec import _ext
except ImportError:
    _ext = None

BACKENDS = [_pure] if _ext is None else [_pure, _ext]


def backend_id(mod):
    return mod.BACKEND


def perms(max_n=8, min_n=0):
    return (
        st.integers(min_n, max_n)
        .flatmap(lambda n: st.permutations(tuple(range(1, n + 1))))
        .map(tuple)
    )


@pytest.mark.skipif(_ext is None, reason="extension not built")
@pytest.mark.skipif(bool(os.environ.get("PERMCODEC_PURE")), reason="pure forced")
def test_compiled_backend_is_selected_by_default():
    assert kernels.BACKEND == "compiled"


def test_env_variable_forces_pure_backend():
    env = cli_env({"PERMCODEC_PURE": "1"})
    out = subprocess.run(
        [sys.executable, "-c", "from permcodec import kernels; print(kernels.BACKEND)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "pure"


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
@given(p=perms(), q=perms(max_n=4))
def test_first_occurrence_matches_brute_force(impl, p, q):
    brute = oracles.brute_occurrences(p, q)
    want = tuple(i - 1 for i in brute[0]) if brute else None
    if len(q) == 0:
        want = ()
    assert impl.first_occurrence(p, q) == want


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
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


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_count_edge_cases(impl):
    assert impl.count_avoiders_dfs((), 3) == 0
    assert impl.count_avoiders_dfs((1,), 3) == 0
    assert impl.count_avoiders_dfs((1, 2), 0) == 1
    assert impl.count_avoiders_dfs((), 0) == 0


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_first_entry_shards_partition_the_count(impl):
    q = (1, 3, 2, 4)
    for n in range(1, 7):
        total = impl.count_avoiders_dfs(q, n)
        assert total == sum(
            impl.count_avoiders_dfs(q, n, first) for first in range(1, n + 1)
        )


@pytest.mark.skipif(_ext is None, reason="extension not built")
@settings(max_examples=300)
@given(p=perms(max_n=9), q=perms(max_n=5))
def test_backends_agree(p, q):
    assert _pure.first_occurrence(p, q) == _ext.first_occurrence(p, q)


@pytest.mark.skipif(_ext is None, reason="extension not built")
def test_backends_agree_on_counts():
    for k in range(0, 5):
        for q in permutations(range(1, k + 1)):
            for n in range(0, 7):
                assert _pure.count_avoiders_dfs(q, n) == _ext.count_avoiders_dfs(q, n)


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_haystack_values_need_not_be_contiguous(impl):
    # callers pass raw subsequences; only relative order may matter
    assert impl.first_occurrence((9, 2, 14), (2, 1, 3)) == (0, 1, 2)
