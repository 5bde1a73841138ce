import collections
import functools
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import ROOT, build_ext, cli_env, skip_unless_buildable
from permcodec import _pure, kernels
from permcodec.enumeration import count_avoiders, verify_injection
from permcodec.errors import MalformedInput, NotInImage, PermcodecError
from permcodec.perms import staircase_pattern, symmetry_class
from permcodec.words import WordFamily, validate_word


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


def test_a_build_of_other_source_goes_unused(tmp_path):
    # kernels compares the build's SOURCE_CRC32 with the _ext.c beside it
    skip_unless_buildable()
    package = tmp_path / "src" / "permcodec"
    shutil.copytree(ROOT / "src" / "permcodec", package,
                    ignore=shutil.ignore_patterns("__pycache__", "_ext.*.so", "_ext.*.pyd"))
    shutil.copy(ROOT / "setup.py", tmp_path)
    build = build_ext(tmp_path, tmp_path)
    built = list((tmp_path / "lib").glob("permcodec/_ext.*"))
    assert built, build.stderr
    shutil.copy(built[0], package)
    env = {key: value for key, value in os.environ.items() if key != "PERMCODEC_PURE"}
    env["PYTHONPATH"] = str(tmp_path / "src")

    def backend():
        return subprocess.run(
            [sys.executable, "-c", "import permcodec; print(permcodec.kernel_backend())"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True, timeout=60,
        ).stdout.strip()

    assert backend() == "compiled"
    source = package / "_ext.c"
    source.write_text(source.read_text() + "/* edited after the build */\n")
    assert backend() == "pure"


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


# ---------------------------------------------------------------------------
# the codec's entries: one call per encode and per decode


def outcome(run, *args):
    """(None, what run(*args) returns), or the type and message of the error it raised."""
    try:
        return None, run(*args)
    except (PermcodecError, ValueError) as exc:
        return type(exc), str(exc)


def test_codes_agree_with_the_pure_passes(impl):
    for k in range(3, 9):
        for n in range(8):
            for p in _pure.avoiders(staircase_pattern(k), n):
                code = impl.encode(p, k)
                assert code == _pure.encode_levels(p, k), (p, k)
                assert impl.decode(*code, k, k) == p


@functools.cache
def same_multiset_pairs(k, nmax):
    """Every pair whose words share one letter multiset, with the pure decode's outcome."""
    alphabet = sorted(WordFamily.for_pattern_length(k).alphabet)
    pairs = []
    for n in range(nmax + 1):
        for letters in itertools.combinations_with_replacement(alphabet, n):
            words = set(itertools.permutations(letters))
            pairs += [(w, wp, outcome(_pure.decode, w, wp, k, k))
                      for w, wp in itertools.product(words, repeat=2)]
    return pairs


@pytest.mark.parametrize("k,nmax", [(3, 6), (4, 5), (5, 4), (6, 4)])
@pytest.mark.parametrize("impl", ["compiled"], indirect=True)  # the pure decode is the reference
def test_decode_outcomes_agree_with_the_pure_fill(impl, k, nmax):
    # the ranges of test_codec.test_decode_accepts_exactly_the_image
    for w, wp, want in same_multiset_pairs(k, nmax):
        assert outcome(impl.decode, w, wp, k, k) == want, (w, wp)


@functools.cache
def equal_length_pairs(k, n):
    """Every pair of length-n words over the alphabet for k, letter multisets equal or not."""
    words = list(itertools.product(sorted(WordFamily.for_pattern_length(k).alphabet), repeat=n))
    return list(itertools.product(words, repeat=2))


@pytest.mark.parametrize("k,nmax", [(3, 6), (4, 4), (5, 3), (6, 3)])
def test_fill_outcomes_agree_on_every_pair_of_words(ext, k, nmax):
    # the fills own the letter counts: a pair whose multisets differ never decodes
    for n in range(nmax + 1):
        for w, wp in equal_length_pairs(k, n):
            want = outcome(_pure.decode, w, wp, k, k)
            assert outcome(ext.decode, w, wp, k, k) == want, (w, wp)
            assert want[0] is None or want[0] is NotInImage, (w, wp)
            assert want[0] is NotInImage or sorted(w) == sorted(wp), (w, wp)
    unequal = NotInImage, "the two words must share one letter multiset"
    assert outcome(_pure.decode, (1, 1), (1, 2), 4, 4) == unequal


def lowering_ks(n):
    """Ks that kernels lowers at length n, the last two past the compiled decode's reach."""
    return [*range(2 * n + 4, 2 * n + 21), 10**20, 10**20 + 1]


def test_decode_outcomes_agree_past_the_alphabet_and_the_lowered_base_level(ext, monkeypatch):
    # MalformedInput names the first word with a letter outside the alphabet for the
    # caller's k; a k that kernels lowers refuses letters from the lowered base level up
    monkeypatch.setattr(kernels, "_impl", ext)
    rng = random.Random("past the alphabet")
    seen = collections.Counter()
    for n in range(1, 6):
        for k in [*range(3, 9), *lowering_ks(n)]:
            alphabet = WordFamily.for_pattern_length(k).alphabet
            low = kernels._lowered(k, n)
            base = 3 * (low // 2 - 1)
            letters = [-1, *range(alphabet[0], base + 3), alphabet[-1], alphabet[-1] + 1, 2**63]
            for _ in range(60):
                w = tuple(rng.choice(letters) for _ in range(n))
                wp = tuple(rng.sample(w, n)) if rng.random() < 0.5 else tuple(
                    rng.choice(letters) for _ in range(n))
                want = outcome(_pure.decode, w, wp, k, low)
                assert outcome(kernels.decode, w, wp, k) == want, (w, wp, k)
                seen[want[1] if want[0] is NotInImage else want[0]] += 1
    assert seen[MalformedInput] > 1000 and seen[None] > 50
    assert seen["a letter names a level that no code of this length reaches"] > 1000
    assert seen["the two words must share one letter multiset"] > 100


def test_encode_outcomes_agree_with_the_pure_encode(ext):
    # None marks a permutation that holds the staircase; codec then names the witness
    refused = [(1, 1), (0,), (2,), (1, 3), (2, 2, 1), (0, 1, 2), (1, 2, 4), (1, 2, 3, 3),
               (-1, 1), (2**64, 1), (3, 1, 2, 2)]
    seen = collections.Counter()
    for k in range(3, 9):
        every = (q for n in range(7) for q in permutations(range(1, n + 1)))
        for p in [*refused, [2, 1, 3], *every]:
            want = outcome(_pure.encode, p, k)
            assert outcome(ext.encode, p, k) == want, (p, k)
            seen[want[0] or (want[1] is None)] += 1
    assert seen[MalformedInput] == 6 * len(refused)
    assert seen[True] > 500 and seen[False] > 1000  # holds the staircase, and avoids it


def test_fills_refuse_words_of_two_lengths(impl):
    for w, wp, k in [((1,), (0, 1), 3), ((1,), (1, 2), 4), ((1, 2), (1,), 4)]:
        with pytest.raises(ValueError, match="one length"):
            impl.decode(w, wp, k, k)


def decision(decode, *args):
    """The avoider a decode returns, or the type of the error it raised."""
    try:
        return decode(*args)
    except (MalformedInput, NotInImage) as exc:
        return type(exc)


def test_lowered_and_unlowered_decodes_reach_one_decision(impl, monkeypatch):
    # kernels hands every decode the least k of the same parity past 2n + 3
    monkeypatch.setattr(kernels, "_impl", impl)
    rng = random.Random("lowered decodes")
    accepted = 0
    for n in range(6):
        for k in lowering_ks(n):
            top = WordFamily.for_pattern_length(k).alphabet[-1]
            letters = [*range(3 * n + 6), top - 1, top]  # a code's letters, and the base level's
            for _ in range(40):
                p = tuple(rng.sample(range(1, n + 1), n))  # no staircase longer than n occurs
                w, wp = map(list, _pure.encode_levels(p, k))
                if n and rng.random() < 0.7:  # a code with one letter changed or two swapped
                    word = rng.choice((w, wp))
                    i, j = rng.randrange(n), rng.randrange(n)
                    if rng.random() < 0.5:
                        word[i], word[j] = word[j], word[i]
                    else:
                        word[i] = rng.choice(letters)
                if rng.random() < 0.2:  # or two words drawn at random
                    w, wp = ([rng.choice(letters) for _ in range(n)] for _ in range(2))
                w, wp = tuple(w), tuple(wp)
                want = decision(_pure.decode, w, wp, k, k)
                assert decision(kernels.decode, w, wp, k) == want, (w, wp, k)
                accepted += isinstance(want, tuple)
    assert accepted > 1000


def test_floors_agree_with_the_pure_pass_and_brute_force(impl):
    # the floor is 0 exactly when encode finds no staircase and returns a code
    rng = random.Random("staircase floors")
    held = 0
    for _ in range(2000):
        n = rng.randint(0, 80)
        p = tuple(rng.sample(range(1, n + 1), n))
        k = rng.randint(3, 10)
        floor = _pure.staircase_floor(p, k)
        assert (impl.encode(p, k) is None) == bool(floor), (p, k)
        held += bool(floor)
        if n <= 8:
            starts = [min(p[i - 1] for i in spots)
                      for spots in oracles.brute_occurrences(p, staircase_pattern(k))]
            assert floor == max(starts, default=0), (p, k)
    assert 500 < held < 1900


def test_kernels_lower_a_huge_k_to_the_same_code(impl, monkeypatch):
    # past 2n + 3 the code depends on nothing but k's parity
    monkeypatch.setattr(kernels, "_impl", impl)
    for n in range(7):
        for k in (3, 4, 5):
            for p in oracles.brute_avoiders(staircase_pattern(k), n):
                for big in range(k, 2 * n + 9):
                    assert kernels.encode(p, big) == _pure.encode_levels(p, big), (p, big)
    for k in (10**6, 2**62, 2**62 + 1, 10**20, 10**20 + 1):
        code = kernels.encode((3, 6, 1, 2, 7, 4, 5), k)
        assert code == _pure.encode_levels((3, 6, 1, 2, 7, 4, 5), k)
        assert kernels.decode(*code, k) == (3, 6, 1, 2, 7, 4, 5)


def test_compiled_passes_refuse_what_would_leave_their_bounds(ext, monkeypatch):
    with pytest.raises(OverflowError):
        ext.encode((1,), 10**20)  # kernels lowers such a k first
    for k in (2, 2**62 + 1):
        with pytest.raises(ValueError):
            ext.encode((1,), k)
    for k, low in [(2**62 + 1, 5), (4, 2), (4, 6)]:  # kernels decodes past 2**62 in Python
        with pytest.raises(ValueError):
            ext.decode((1,), (1,), k, low)
    with pytest.raises(TypeError):  # entries and letters are ints
        ext.encode((1, "2"), 3)
    with pytest.raises(TypeError):
        ext.decode((1, 2.0), (1, 2), 4, 4)
    with pytest.raises(NotInImage, match="one letter multiset"):
        ext.decode((1, 1), (1, 2), 4, 4)  # the fill owns the letter counts
    assert ext.encode((2, 1, 3), 4) == _pure.encode_levels((2, 1, 3), 4)  # no longer pattern occurs
    monkeypatch.setattr(kernels, "_impl", ext)
    for huge in (2**61 + 1, 10**20 + 1):  # lowered to 7, so a 0 starts an odd level of 7
        assert outcome(kernels.decode, (0,), (0,), huge) == outcome(
            _pure.decode, (0,), (0,), huge, huge) == (
            NotInImage, "too few entries to start the required pattern")


# ---------------------------------------------------------------------------
# the verify sweep


#: (q, k, n): the staircase sweeps of verify, then walks of other patterns, with k
#: running over 3..8, whose avoiders may hold the staircase for k: their codes can
#: fail to round-trip or leave the word family, so the defect counts and lists fill
SWEEPS = [(staircase_pattern(k), k, n) for k in range(3, 9) for n in range(8)] + [
    (q, 3 + (q[0] + n) % 6, n)
    for q in [*permutations((1, 2, 3)), *permutations((1, 2, 3, 4)),
              *sorted({symmetry_class(q) for q in permutations((1, 2, 3, 4, 5))})]
    for n in range(7)
]


@functools.cache
def reference_shard(q, k, n, first, cap):
    """What a shard reports, from the pure passes in a loop of the test's own."""
    family = WordFamily.for_pattern_length(k)
    avoiders = list(_pure.avoiders(q, n, first))
    found = ([], [], [])
    for p in avoiders:
        w, wp = _pure.encode_levels(p, k)
        defects = (
            outcome(_pure.decode_fill, w, wp, k) != (None, p),
            not validate_word(w, family) or not validate_word(wp, family),
            k % 2 == 0 and n > 0 and (w[0], wp[0]) != (1, 1),
        )
        for x in range(3):
            if defects[x]:
                found[x].append(p)
    return len(avoiders), tuple(map(len, found)), tuple(tuple(f[:cap]) for f in found)


def test_sweep_shards_report_what_the_pure_passes_find(impl):
    defective = [0, 0, 0]
    for q, k, n in SWEEPS:
        for first in range(1, n + 1) or [0]:
            cap = (k + n + first) % 4  # 0..3, below most defect counts
            want = reference_shard(q, k, n, first, cap)
            assert impl.verify_shard(q, k, n, first, cap) == want, (q, k, n, first)
            for x, count in enumerate(want[1]):
                defective[x] += count > 0
            if q == staircase_pattern(k):
                assert want[1] == (0, 0, 0), (k, n, first)
    # an even-k code starts both words with 1 for any permutation, so no first-letter defects
    assert defective[0] > 300 and defective[1] > 150 and defective[2] == 0


def test_compiled_sweep_checks_every_avoider_at_k6_n9(ext, monkeypatch):
    monkeypatch.setattr(kernels, "_impl", ext)
    report = verify_injection(6, 9)
    assert report.passed
    assert report.total == kernels.count_avoiders_dfs(staircase_pattern(6), 9)[9] == 344839


def test_compiled_sweep_refuses_bad_arguments(ext):
    q = staircase_pattern(4)
    for args in [(q, 2, 4, 0, 1), (q, 2**62 + 1, 4, 0, 1), (q, 4, -1, 0, 1), (q, 4, 4, 5, 1),
                 (q, 4, 4, -1, 1), (q, 4, 4, 0, -1), ((1, 1), 4, 4, 0, 1), ((0, 1), 4, 4, 0, 1),
                 ((1, 3), 4, 4, 0, 1)]:
        with pytest.raises(ValueError):
            ext.verify_shard(*args)
    with pytest.raises(TypeError):
        ext.verify_shard((1, "2"), 4, 4, 0, 1)
    for q in [(), (1,)]:  # the walk's edge cases: () occurs everywhere, (1) in every nonempty one
        for n in range(3):
            assert ext.verify_shard(q, 4, n, 0, 1) == _pure.verify_shard(q, 4, n, 0, 1)


def run_child(code, *args):
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, env=cli_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


_LOAD_EXT = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("permcodec._ext", sys.argv[1])
ext = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ext)
"""


#: the child tests read /proc/self/statm and take ru_maxrss in KiB, as Linux reports them
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc and rusage")


@linux_only
def test_a_failed_allocation_raises_memory_error(ext):
    # an address-space limit on a child leaves too little room for each pass's buffers
    code = _LOAD_EXT + """\
import resource
n = 10**6
p, ones = tuple(range(1, n + 1)), (1,) * n
pages = int(open("/proc/self/statm").read().split()[0])
room = pages * resource.getpagesize() + 3 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (room, room))
for run in (lambda: ext.encode(p, 4), lambda: ext.decode(ones, ones, 4, 4),
            lambda: ext.verify_shard((), 4, n, 0, 1)):
    try:
        run()
    except MemoryError:
        print("MemoryError")
"""
    assert run_child(code, ext.__file__) == ["MemoryError"] * 3


@linux_only
def test_compiled_round_trips_do_not_leak(ext):
    # a leaked buffer or reference per call would grow the child by megabytes
    code = _LOAD_EXT + """\
import random, resource
sys.path.insert(0, sys.argv[2])
import oracles
from permcodec.errors import MalformedInput, NotInImage
from permcodec.perms import staircase_pattern
rng = random.Random("leak")
inputs = [(oracles.random_staircase_avoider(rng, k, rng.randint(50, 70)), k)
          for k in (3, 4, 5, 6) for _ in range(5)]
def round_trip(p, k):
    w, wp = ext.encode(p, k)
    assert ext.decode(w, wp, k, k) == p
    assert ext.encode(staircase_pattern(k) + tuple(range(k + 1, len(p) + 1)), k) is None
    for run in (lambda: ext.decode(w, wp[1:] + wp[:1], k, k),  # the error paths
                lambda: ext.decode(w, wp[:-1] + (99,), k, k),
                lambda: ext.encode(p[1:] + p[:1] + (len(p),), k)):
        try:
            run()
        except (MalformedInput, NotInImage):
            pass
for i in range(100_000):
    round_trip(*inputs[i % len(inputs)])
    if i == 999:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    after_1000, after_all = map(int, run_child(code, ext.__file__, ROOT / "tests"))
    assert after_all - after_1000 < 3 * 1024  # KiB


@linux_only
def test_compiled_sweeps_do_not_leak(ext):
    # shards whose codes often fail, every defect kept as an example, and refused arguments
    code = _LOAD_EXT + """\
import resource
shards = [((3, 4, 1, 2), 4), ((2, 3, 4, 1), 5), ((3, 4, 2, 1), 6)]
for i in range(1200):
    q, k = shards[i % len(shards)]
    total, counts, found = ext.verify_shard(q, k, 7, 0, 2000)
    assert counts[0] and list(map(len, found)) == list(counts)
    try:
        ext.verify_shard((1, 1), k, 7, 0, 10)
    except ValueError:
        pass
    if i == 119:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    after_120, after_all = map(int, run_child(code, ext.__file__))
    assert after_all - after_120 < 3 * 1024  # KiB
