"""Shared test helpers.

The ``ext`` fixture builds the compiled kernels from ``_ext.c``, and ``impl``
runs a test once on each backend. ``run_cli`` runs the real ``python -m permcodec`` entry point in a child
process. The child imports the same ``permcodec`` the suite imported: the
directory that holds that package goes first on the child's ``PYTHONPATH``,
so a relative ``PYTHONPATH=src`` or an uninstalled checkout still resolves
when the child runs in a temporary cwd.
"""

import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import permcodec
from permcodec import _pure

ROOT = Path(__file__).resolve().parent.parent

#: the directory holding the imported ``permcodec`` package (``src`` in a checkout)
PACKAGE_ROOT = str(Path(permcodec.__file__).resolve().parent.parent)

#: seconds one CLI run may take before its test fails (the CLI tests take ~10 s in all)
CLI_TIMEOUT = 120


def with_cache(argv, path):
    """``argv`` plus ``--cache path`` when its subcommand takes the flag (count, verify)."""
    return [*argv, "--cache", str(path)] if argv[0] in ("count", "verify") else list(argv)


def cli_env(env_extra=None):
    """Environment for a child ``python -m permcodec``.

    ``PERMCODEC_CACHE`` is removed from the inherited environment, so a
    caller's cache cannot answer a query; tests that want it pass it in
    ``env_extra``.
    """
    env = dict(os.environ)
    env.pop("PERMCODEC_CACHE", None)
    if env_extra:
        env.update(env_extra)
    inherited = [entry for entry in env.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env["PYTHONPATH"] = os.pathsep.join([PACKAGE_ROOT, *inherited])
    return env


def run_cli(args, cwd, env_extra=None, timeout=CLI_TIMEOUT):
    """Run ``python -m permcodec *args`` in ``cwd`` and return the CompletedProcess.

    The environment comes from ``cli_env``. The CLI starts no child process
    (its ``--jobs`` pool is threads), so killing the child ends the run. The
    child still runs in its own process group, and the whole group is killed
    when the run times out or the test is interrupted, only as a guard: a
    process the CLI started would be killed with it.
    """
    with subprocess.Popen(
        [sys.executable, "-m", "permcodec", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=cwd, env=cli_env(env_extra), start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


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
    """The compiled kernels, built from ``_ext.c`` into a temporary directory.

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


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    return _pure if request.param == "pure" else request.getfixturevalue("ext")
