import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import time
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import cli_env
from permcodec import _pure, kernels
from permcodec.enumeration import count_avoiders

ROOT = Path(__file__).resolve().parent.parent


def skip_unless_buildable():
    """Skip where no C compiler or no ``Python.h`` is found, as setup.py checks."""
    compiler = (sysconfig.get_config_var("CC") or "").split()[:1]
    headers = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not (compiler and shutil.which(compiler[0]) and headers.is_file()):
        pytest.skip("no C compiler or no Python.h to build the extension with")


def build_ext(root, out):
    return subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="session")
def ext(tmp_path_factory):
    """The compiled kernel, built from ``_ext.c`` into a temporary directory.

    Skips the test only where no C compiler or no ``Python.h`` is found; a
    build that leaves no module fails the test with the compiler's output.
    """
    skip_unless_buildable()
    out = tmp_path_factory.mktemp("ext")
    build = build_ext(ROOT, out)
    built = sorted((out / "lib").glob("permcodec/_ext.*"))
    if not built:
        pytest.fail(f"the C extension did not build:\n{build.stdout}{build.stderr}")
    spec = importlib.util.spec_from_file_location("permcodec._ext", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_broken_extension_fails_the_build(tmp_path):
    # the extension is optional only where it cannot compile at all
    skip_unless_buildable()
    source = tmp_path / "src" / "permcodec" / "_ext.c"
    source.parent.mkdir(parents=True)
    shutil.copy(ROOT / "setup.py", tmp_path)
    source.write_text((ROOT / "src" / "permcodec" / "_ext.c").read_text() + "not C;\n")
    build = build_ext(tmp_path, tmp_path)
    assert build.returncode != 0
    assert not list((tmp_path / "lib").glob("permcodec/_ext.*"))


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
    brute = oracles.brute_occurrences(p, q)  # [()] for the empty q
    assert _pure.first_occurrence(p, q) == (brute[0] if brute else None)


def test_haystack_values_need_not_be_contiguous():
    # callers pass raw subsequences; only relative order may matter
    assert _pure.first_occurrence((9, 2, 14), (2, 1, 3)) == (1, 2, 3)


def test_count_matches_brute_force(impl):
    for k in range(0, 5):
        for q in permutations(range(1, k + 1)):
            wants = [oracles.brute_avoiders(q, n) for n in range(7)]
            if k >= 2:  # kernels answers the shorter patterns itself
                assert impl.count_avoiders_dfs(q, 6) == [len(want) for want in wants]
            for n, want in enumerate(wants):
                assert list(_pure.avoiders(q, n)) == want
                if n:
                    shards = [p for f in range(1, n + 1) for p in _pure.avoiders(q, n, f)]
                    assert shards == want


def test_count_edge_cases(impl, monkeypatch):
    # kernels answers patterns shorter than 2, which the engines do not take,
    # and patterns longer than n, which they would answer the same
    monkeypatch.setattr(kernels, "_impl", impl)
    for q in [(), (1,)]:
        walk = [sum(1 for _ in _pure.avoiders(q, n)) for n in range(6)]
        assert kernels.count_avoiders_dfs(q, 5) == walk
    assert kernels.count_avoiders_dfs((), 0) == [0]
    assert kernels.count_avoiders_dfs((1,), 0) == [1]
    for q in [(1, 2), (2, 1, 3), (2, 4, 1, 3)]:
        n = len(q) - 1
        assert kernels.count_avoiders_dfs(q, n) == impl.count_avoiders_dfs(q, n) == [
            factorial(m) for m in range(n + 1)]


def test_engines_agree_with_the_avoider_walk(ext):
    for k in range(2, 6):
        for q in permutations(range(1, k + 1)):
            walk = [sum(1 for _ in _pure.avoiders(q, n)) for n in range(8)]
            assert _pure.count_avoiders_dfs(q, 7) == ext.count_avoiders_dfs(q, 7) == walk


@pytest.fixture(params=["pure", "compiled"])
def reach(request):
    """An engine and the largest n its oracle checks run to."""
    if request.param == "pure":
        return _pure, 9
    return request.getfixturevalue("ext"), 12


def test_counts_match_closed_forms_and_a061552(reach):
    impl, top = reach
    for q in permutations((1, 2, 3)):
        assert impl.count_avoiders_dfs(q, top) == [oracles.catalan(n) for n in range(top + 1)], q
    assert impl.count_avoiders_dfs((1, 2, 3, 4), top + 2) == [
        oracles.gessel_1234(n) for n in range(top + 3)]
    assert impl.count_avoiders_dfs((1, 3, 2, 4), top + 1) == list(oracles.A061552[:top + 2])


def test_counts_are_the_same_across_the_eight_symmetries(reach):
    impl, top = reach
    classes = {min(oracles.symmetries(q)) for q in permutations(range(1, 5))}
    for q in [*sorted(classes), (2, 5, 3, 1, 4), (1, 3, 2, 5, 4), (2, 4, 1, 5, 3)]:
        n = top - 2 + (len(q) == 4)
        assert len({tuple(impl.count_avoiders_dfs(s, n)) for s in oracles.symmetries(q)}) == 1, q


def test_proved_wilf_equivalences_hold(reach):
    # 12+s ~ 21+s (Backelin-West-Xin) and 1342 ~ 2413 (Stankova)
    impl, top = reach
    assert len({tuple(impl.count_avoiders_dfs(q, top)) for q in
                [(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)]}) == 1
    assert impl.count_avoiders_dfs((1, 3, 4, 2), top) == impl.count_avoiders_dfs((2, 4, 1, 3), top)


def test_compiled_engine_counts_1324_at_fourteen_within_seconds(ext, monkeypatch):
    monkeypatch.setattr(kernels, "_impl", ext)
    start = time.perf_counter()
    assert count_avoiders((1, 3, 2, 4), 14, budget=10**12) == 1209639642  # A061552(14)
    assert time.perf_counter() - start < 5


def test_compiled_count_refuses_a_total_that_could_wrap(ext, monkeypatch):
    # 21! > 2**63, so the 64-bit engine stops at n = 20 and kernels counts in Python
    with pytest.raises(OverflowError):
        ext.count_avoiders_dfs((1, 3, 2, 4), 21)
    monkeypatch.setattr(kernels, "_impl", ext)
    monkeypatch.setattr(_pure, "count_avoiders_dfs", lambda q, n: "pure")
    assert kernels.count_avoiders_dfs((1, 3, 2, 4), 21) == "pure"
    assert kernels.count_avoiders_dfs((1, 2), 20) == [1] * 21


def test_compiled_engine_refuses_a_pattern_shorter_than_two(ext):
    for q in [(), (1,)]:
        with pytest.raises(ValueError):
            ext.count_avoiders_dfs(q, 3)


def test_a_pattern_longer_than_n_counts_as_a_factorial(impl, monkeypatch):
    monkeypatch.setattr(kernels, "_impl", impl)
    start = time.perf_counter()
    assert count_avoiders(tuple(range(1, 31)), 11) == factorial(11)
    assert time.perf_counter() - start < 1
