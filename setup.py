"""Build script: compiles the optional kernel from the shipped C source.

`src/etdom/_kernel/_fastcore.c` is a hand-written CPython extension
(no Cython, no generated code), so building needs only a C compiler:

    python setup.py build_ext --inplace

If the compiler is missing or fails, the build still succeeds and the
package runs on the pure-Python kernel selected at import time.
Set ETDOM_NO_EXT=1 to skip the extension on purpose.
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that degrades to the pure backend instead of failing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing entirely
            print(f"etdom: skipping compiled kernel ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"etdom: failed to build {ext.name}; falling back to the "
                  f"pure-Python kernel ({exc})", file=sys.stderr)


ext_modules = []
if not os.environ.get("ETDOM_NO_EXT"):
    ext_modules = [
        Extension(
            "etdom._kernel._fastcore",
            ["src/etdom/_kernel/_fastcore.c"],
            extra_compile_args=["-O2"],
        )
    ]

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
