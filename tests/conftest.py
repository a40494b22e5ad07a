"""Session set-up shared by every test module.

When the native gate kernel is not installed but a C compiler and the
Python headers are present, the tracked ``_ckernel.c`` is compiled into a
temporary directory and registered as ``hequel.kernel._ckernel``, so the
parity tests and the native cases of the kernel tests run. Nothing is
written under ``src/``, and ``hequel.kernel.active`` keeps the kernel it
chose at import (the pure-Python one, unless ``HEQUEL_KERNEL`` forced
another). Without a compiler the native tests skip as before.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

from hequel import kernel as kernel_mod

C_SOURCE = Path(kernel_mod.__file__).with_name("_ckernel.c")
MODULE = "hequel.kernel._ckernel"

_build_dir: tempfile.TemporaryDirectory | None = None


def _build_native_kernel(out_dir: Path):
    """Compile ``_ckernel.c`` into ``out_dir`` and import it; None when no
    compiler, header or source is available or the build fails."""
    include = Path(sysconfig.get_paths()["include"])
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None or not (include / "Python.h").exists() or not C_SOURCE.exists():
        return None
    target = out_dir / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    # optimisation off: these tests check behaviour, not speed
    build = subprocess.run(
        [cc, "-shared", "-fPIC", "-O0", f"-I{include}", str(C_SOURCE),
         "-o", str(target)],
        capture_output=True, text=True)
    if build.returncode != 0:
        return None
    spec = importlib.util.spec_from_file_location(MODULE, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_configure(config):
    global _build_dir
    if kernel_mod._ckernel is not None:
        return
    _build_dir = tempfile.TemporaryDirectory(prefix="hequel-ckernel-")
    module = _build_native_kernel(Path(_build_dir.name))
    if module is not None:
        sys.modules[MODULE] = module
        kernel_mod._ckernel = module


def pytest_unconfigure(config):
    if _build_dir is not None:
        _build_dir.cleanup()
