"""Host facts a benchmark figure depends on.

The BLAS thread count is recorded, never set: pinning BLAS threads is a
program change whose effect the benchmark has to be able to see.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = ["host_metadata"]

#: Thread-count getters of the OpenBLAS builds NumPy ships or links.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> Tuple[Optional[str], Optional[int]]:
    """The BLAS library NumPy loaded, and its current thread count."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*blas*")) if libs.is_dir() else []:
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return path.name, int(getter())
        return path.name, None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("name"), None


def _commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text(encoding="utf-8").strip() if target.is_file() else None


def _source_sha256(root: Path) -> str:
    """Digest of the ``repro`` sources, which identifies a checkout without git."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def host_metadata(root: Path) -> Dict[str, Any]:
    """CPU count and affinity, interpreter, NumPy, BLAS and source identity."""
    blas_library, blas_threads = _blas()
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_library": blas_library,
        "blas_threads": blas_threads,
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
    }
