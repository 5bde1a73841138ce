"""Build shim: compiles the kernel extension ``permcodec._ext`` from C.

The extension holds the memoized avoider count, the codec's encode and
decode, each one call that checks its input and runs the level passes
(encode, greedy decode fill, staircase floor), and the verify sweep, which
walks each shard's avoiders and runs those passes and the checks on each.
The package works without it (``permcodec.kernels`` falls back to the
pure-Python twins in ``permcodec._pure``). So the extension is optional only
where no C compiler or no ``Python.h`` is found: there the build warns and
goes on without it. Anywhere else a compile error fails the build.

The build passes ``SOURCE_CRC32``, the CRC-32 of ``_ext.c``, which the module
exposes: ``permcodec.kernels`` does not use a build whose checksum differs
from the ``_ext.c`` beside it.
"""

import shutil
import sysconfig
import zlib
from pathlib import Path

from setuptools import Extension, setup

SOURCE = "src/permcodec/_ext.c"

compiler = (sysconfig.get_config_var("CC") or "").split()[:1]
headers = Path(sysconfig.get_paths()["include"]) / "Python.h"
buildable = bool(compiler and shutil.which(compiler[0]) and headers.is_file())
crc = zlib.crc32(Path(SOURCE).read_bytes())

setup(ext_modules=[
    Extension("permcodec._ext", [SOURCE], optional=not buildable,
              define_macros=[("SOURCE_CRC32", f"{crc}UL")]),
])
