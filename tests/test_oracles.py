"""The oracles pin the package from outside, so they import only the stdlib."""

import ast
import itertools
import random
import sys
from pathlib import Path

import oracles
from permcodec.perms import staircase_pattern


def test_oracles_import_only_the_standard_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            modules.add(node.module)
    top_level = {name.split(".")[0] for name in modules}
    assert top_level and top_level <= sys.stdlib_module_names


def test_the_avoider_generator_draws_staircase_avoiders():
    rng = random.Random("generator")
    for k in range(3, 9):
        assert oracles.staircase(k) == staircase_pattern(k)
        for n in range(9):
            for _ in range(5):
                p = oracles.random_staircase_avoider(rng, k, n)
                assert sorted(p) == list(range(1, n + 1))
                assert not oracles.brute_contains(p, oracles.staircase(k)), (p, k)


def test_the_search_walk_lists_the_brute_force_avoiders():
    # the walk stands in for brute force where brute force is too slow
    for k in range(0, 5):
        for q in itertools.permutations(range(1, k + 1)):
            for n in range(7):
                want = oracles.brute_avoiders(q, n)
                assert oracles.search_avoiders(q, n) == want, (q, n)
                for first in range(1, n + 1):
                    assert oracles.search_avoiders(q, n, first) == [
                        p for p in want if p[0] == first], (q, n, first)
