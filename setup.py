"""Build shim: compiles the count-DFS extension ``permcodec._ext`` from C.

The package works without it (``permcodec.kernels`` falls back to the
pure-Python walk), so the extension is optional: where no C compiler or
``Python.h`` is found, the build warns and goes on without it.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("permcodec._ext", ["src/permcodec/_ext.c"], optional=True)])
