"""Shared test helpers.

``run_cli`` runs the real ``python -m permcodec`` entry point in a child
process. The child imports the same ``permcodec`` the suite imported: the
directory that holds that package goes first on the child's ``PYTHONPATH``,
so a relative ``PYTHONPATH=src`` or an uninstalled checkout still resolves
when the child runs in a temporary cwd.
"""

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import permcodec

#: the directory holding the imported ``permcodec`` package (``src`` in a checkout)
PACKAGE_ROOT = str(Path(permcodec.__file__).resolve().parent.parent)

#: seconds one CLI run may take before its test fails (the CLI tests take ~10 s in all)
CLI_TIMEOUT = 120


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

    The environment comes from ``cli_env``. The child runs in its own process
    group, and the whole group is killed when the run times out or the test
    is interrupted: killing only the child would leave its ``--jobs`` pool
    workers running.
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
