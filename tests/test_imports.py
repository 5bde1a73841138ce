"""``import permcodec`` loads no submodule, and a command loads only what it runs.

The load checks run in a fresh interpreter: this one has imported everything.
A module the bare interpreter already loads (through ``site``, say) is never
counted, since no change to permcodec could keep it out.
"""

import subprocess
import sys

import pytest

import permcodec
from conftest import cli_env

#: runs ``code``, then prints as its last line the modules that ``code`` loaded
_PROBE = """\
import sys
_before = set(sys.modules)
{code}
print(" ".join(sorted(set(sys.modules) - _before)))
"""


def loaded_by(code: str, *args: str, env_extra=None) -> set[str]:
    """Modules a fresh interpreter loads for ``code`` beyond those it starts with."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code), *args],
        capture_output=True, text=True, env=cli_env(env_extra), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


def test_bare_import_loads_no_submodule():
    loaded = loaded_by("import permcodec")
    assert "permcodec" in loaded
    assert not [name for name in loaded if name.startswith("permcodec.")]


_MAIN = "from permcodec import cli\ncli.main(sys.argv[1:])"

#: what neither a count nor a verify runs: the report records are tuples, the
#: word text is parsed in perms, and a cache record of a digit pattern needs no json
_NOT_ON_THE_LAUNCH_PATH = {"dataclasses", "inspect", "json", "permcodec.words"}


def test_a_count_loads_no_word_counts_and_no_pool(tmp_path):
    # nor logging: the cache prints its one warning itself
    loaded = loaded_by(_MAIN, "count", "-q", "1324", "-n", "6", "--cache", str(tmp_path / "c"))
    assert {"permcodec.enumeration", "permcodec.cache"} <= loaded
    assert not loaded & {"permcodec.wordcount", "fractions", "concurrent.futures", "logging"}
    assert not loaded & _NOT_ON_THE_LAUNCH_PATH


def test_a_pooled_verify_runs_threads_and_no_processes():
    # two CPUs on any host, so that --jobs 2 starts a pool
    code = "import os\nos.cpu_count = lambda: 2\n" + _MAIN
    loaded = loaded_by(code, "verify", "--k", "6", "-n", "5", "--jobs", "2")
    assert "concurrent.futures.thread" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}


#: the ``ext`` fixture's build, loaded as ``permcodec._ext`` from the path in argv[1]
_MAIN_COMPILED = """\
import importlib.util
spec = importlib.util.spec_from_file_location("permcodec._ext", sys.argv.pop(1))
sys.modules["permcodec._ext"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules["permcodec._ext"])
""" + _MAIN


@pytest.mark.parametrize(
    "argv",
    [["count", "-q", "1324", "-n", "6"], ["verify", "--k", "6", "-n", "5"],
     ["scan", "--k", "4", "-n", "6"], ["scan", "--k", "4", "-n", "6", "--format", "json"]],
    ids=["count", "verify", "scan", "scan-json"],
)
def test_a_compiled_count_or_verify_loads_no_pure_kernels_and_no_codec(ext, argv, tmp_path):
    # the pure twins (and the coloring they build on) load only where they run, and a
    # scan's is_layered runs neither
    cache = [] if argv[0] == "scan" else ["--cache", str(tmp_path / "c")]
    loaded = loaded_by(_MAIN_COMPILED, ext.__file__, *argv, *cache,
                       env_extra={"PERMCODEC_PURE": ""})
    assert {"permcodec._ext", "permcodec.kernels", "permcodec.enumeration"} <= loaded
    assert not loaded & {"permcodec._pure", "permcodec.coloring", "permcodec.codec"}
    if argv[0] != "scan":  # a scan prints its table with json and the word counts
        assert not loaded & _NOT_ON_THE_LAUNCH_PATH
    assert ("permcodec.cache" in loaded) == (argv[0] == "count")


@pytest.mark.parametrize(
    "argv",
    [["bounds", "--k", "4", "--nmax", "3"], ["words", "--m", "2", "--parity", "odd", "-n", "3"]],
    ids=["bounds", "words"],
)
def test_the_table_commands_load_the_word_counts(argv):
    # the control for the count check above: the probe does see the module
    assert "permcodec.wordcount" in loaded_by(_MAIN, *argv)


@pytest.mark.parametrize(
    "argv, module",
    [(["scan", "--k", "3", "-n", "3", "--format", "json"], "json"),
     (["encode", "132", "--k", "4"], "permcodec.words")],
    ids=["scan-json", "encode"],
)
def test_the_commands_that_run_json_or_the_words_load_them(argv, module):
    # the controls for the launch-path checks above
    assert module in loaded_by(_MAIN, *argv)


def test_submodules_are_attributes_of_a_bare_import():
    out = subprocess.run(
        [sys.executable, "-c",
         "import permcodec\nprint(permcodec.kernels.BACKEND, permcodec.codec.__name__)"],
        capture_output=True, text=True, env=cli_env(), timeout=60, check=True,
    )
    assert out.stdout == f"{permcodec.kernel_backend()} permcodec.codec\n"


@pytest.mark.parametrize("name", permcodec.__all__)
def test_each_export_is_its_home_modules_object(name):
    value = getattr(permcodec, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from permcodec import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(permcodec.__all__)
    assert set(permcodec.__all__) <= set(dir(permcodec))
    assert {"codec", "kernels"} <= set(dir(permcodec))


@pytest.mark.parametrize("name", ["no_such_name", "cli_main", "__main__"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(permcodec, name)
