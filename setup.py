"""Build shim: compiles the kernel extension ``permcodec._ext`` from C.

The extension holds the memoized avoider count and the codec's level passes
(encode, greedy decode fill, staircase floor); the avoider walk behind
``verify`` stays pure Python. The package works without it
(``permcodec.kernels`` falls back to the pure-Python twins in
``permcodec._pure``). So the extension is optional only where no C compiler or
no ``Python.h`` is found: there the build warns and goes on without it.
Anywhere else a compile error fails the build.
"""

import shutil
import sysconfig
from pathlib import Path

from setuptools import Extension, setup

compiler = (sysconfig.get_config_var("CC") or "").split()[:1]
headers = Path(sysconfig.get_paths()["include"]) / "Python.h"
buildable = bool(compiler and shutil.which(compiler[0]) and headers.is_file())

setup(ext_modules=[
    Extension("permcodec._ext", ["src/permcodec/_ext.c"], optional=not buildable),
])
