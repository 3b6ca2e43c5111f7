"""The environment record written into every result file.

Reads only the process itself and files inside the checkout: the commit comes
from ``.git`` when the checkout has one, and the loaded OpenBLAS builds are
found by walking the process's own link map (``dl_iterate_phdr``), then asked
for their build string and thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def pinned_blas_threads() -> int:
    """BLAS threads for every process of a run: all the cores this process may use."""
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _PhdrInfo(ctypes.Structure):
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p),
                ("phdr", ctypes.c_void_p), ("phnum", ctypes.c_uint16)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                                  ctypes.c_void_p)


def loaded_libraries() -> list[str]:
    names: list[str] = []

    def visit(info, _size, _data):
        if info.contents.name:
            names.append(info.contents.name.decode())
        return 0

    ctypes.CDLL(None).dl_iterate_phdr(_PHDR_CALLBACK(visit), None)
    return names


def _first_symbol(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def openblas_builds() -> list[dict]:
    """Every OpenBLAS loaded in this process: NumPy's ``scipy_openblas64`` and
    SciPy's own build, with their configuration and thread count."""
    builds = []
    for path in loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        threads = _first_symbol(lib, ["scipy_openblas_get_num_threads64_",
                                      "scipy_openblas_get_num_threads",
                                      "openblas_get_num_threads64_", "openblas_get_num_threads"])
        config = _first_symbol(lib, ["scipy_openblas_get_config64_", "scipy_openblas_get_config",
                                     "openblas_get_config64_", "openblas_get_config"])
        if config is not None:
            config.restype = ctypes.c_char_p
        builds.append({
            "library": os.path.basename(path),
            "config": config().decode() if config is not None else None,
            "num_threads": threads() if threads is not None else None,
        })
    return builds


def record(root: Path, seed: int, repeats: dict) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "repeats": repeats,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "openblas": openblas_builds(),
    }
