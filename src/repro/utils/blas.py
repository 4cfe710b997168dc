"""The OpenBLAS library NumPy ships, and its thread count.

NumPy wheels bundle OpenBLAS under ``numpy.libs``; loading that file again
through :mod:`ctypes` returns the already-mapped library, so its
``*_get_num_threads*``/``*_set_num_threads*`` symbols act on the BLAS that
``numpy.matmul`` calls.  Everything here degrades to a no-op (``None``
results) when NumPy links some other BLAS or none.

Pool workers pin the count to one (:func:`set_blas_threads`): small GEMMs
run fastest single-threaded, and ``jobs`` workers each spawning a BLAS
thread per CPU oversubscribe the host.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Any, List, Optional, Tuple

import numpy as np

__all__ = ["blas_info", "set_blas_threads"]

#: Symbol prefixes of the OpenBLAS builds NumPy ships or links, with and
#: without the 64-bit-integer ABI suffix.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _thread_function(library: ctypes.CDLL, verb: str, argtypes: List[Any], restype: Any) -> Any:
    """The library's ``<prefix>_<verb>_num_threads<suffix>`` function, or None."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(library, f"{prefix}_{verb}_num_threads{suffix}", None)
            if function is not None:
                function.argtypes = argtypes
                function.restype = restype
                return function
    return None


@functools.lru_cache(maxsize=None)
def _library() -> Tuple[Optional[str], Any, Any]:
    """File name, thread getter and thread setter of the BLAS in ``numpy.libs``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*blas*")) if libs.is_dir() else []:
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        return (
            path.name,
            _thread_function(library, "get", [], ctypes.c_int),
            _thread_function(library, "set", [ctypes.c_int], None),
        )
    return None, None, None


def blas_info() -> Tuple[Optional[str], Optional[int]]:
    """The BLAS library file NumPy loaded, and its current thread count."""
    name, getter, _ = _library()
    return name, None if getter is None else int(getter())


def set_blas_threads(threads: int) -> bool:
    """Set the BLAS thread count; returns False (and does nothing) without a setter."""
    setter = _library()[2]
    if setter is None:
        return False
    setter(threads)
    return True
