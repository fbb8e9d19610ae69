"""Banded Cholesky factorization and solves (LAPACK dpbtrf/dpbtrs).

The routines are called through ctypes on the OpenBLAS that numpy's wheel
bundles and that `import numpy` has already loaded: it exports LAPACK with
64-bit integers under the names scipy_dpbtrf_64_ and scipy_dpbtrs_64_, so
no further library is imported.  Where numpy exposes no such symbols (numpy
built against MKL, Accelerate or a distribution's BLAS) load() falls back to
scipy.linalg.lapack, imported only then.

Both routines run with OpenBLAS pinned to one thread, and the caller's
thread count is restored afterwards: the blocked updates of a threaded
dpbtrf change the factor's last bits with the thread count (at 129 x 129
nodes), and with them every iterate of a solve.  The scipy fallback is not
pinned.

The matrices are in LAPACK lower band storage: a (kd + 1, n) Fortran-ordered
array ab with ab[i - j, j] = K[i, j] for j <= i <= j + kd.
"""

from __future__ import annotations

import ctypes

import numpy as np

# numpy's OpenBLAS (ILP64): (dpbtrf, dpbtrs, get threads, set threads)
SYMBOLS = ("scipy_dpbtrf_64_", "scipy_dpbtrs_64_",
           "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")

_INT = ctypes.c_int64
_P_INT = ctypes.POINTER(_INT)


def _check_band(ab: np.ndarray) -> None:
    if ab.dtype != np.float64 or ab.ndim != 2 or not ab.flags.f_contiguous \
            or not ab.flags.writeable or ab.shape[0] < 1:
        raise ValueError("a band must be a writeable Fortran-ordered float64 (kd + 1, n) array")


class _OpenBLAS:
    """dpbtrf/dpbtrs of numpy's bundled OpenBLAS, through ctypes."""

    name = "numpy-openblas"

    def __init__(self, lib):
        self._pbtrf, self._pbtrs, self._get_threads, self._set_threads = (
            getattr(lib, s) for s in SYMBOLS)
        # (uplo, n, kd, ab, ldab, info, uplo length)
        self._pbtrf.argtypes = [ctypes.c_char_p, _P_INT, _P_INT, ctypes.c_void_p, _P_INT,
                                _P_INT, ctypes.c_size_t]
        # (uplo, n, kd, nrhs, ab, ldab, b, ldb, info, uplo length)
        self._pbtrs.argtypes = [ctypes.c_char_p, _P_INT, _P_INT, _P_INT, ctypes.c_void_p,
                                _P_INT, ctypes.c_void_p, _P_INT, _P_INT, ctypes.c_size_t]
        self._pbtrf.restype = self._pbtrs.restype = None
        self._get_threads.argtypes = []
        self._get_threads.restype = ctypes.c_int
        self._set_threads.argtypes = [ctypes.c_int]
        self._set_threads.restype = None

    def _one_thread(self, call, *args):
        threads = self._get_threads()
        if threads == 1:
            return call(*args)
        self._set_threads(1)
        try:
            return call(*args)
        finally:
            self._set_threads(threads)

    def factor(self, ab: np.ndarray) -> int:
        """Factor ab in place; LAPACK's info."""
        _check_band(ab)
        kd1, n = ab.shape
        info = _INT(0)
        self._one_thread(self._pbtrf, b"L", _INT(n), _INT(kd1 - 1), ab.ctypes.data,
                         _INT(kd1), info, 1)
        return info.value

    def solver(self, factor: np.ndarray):
        """x = K^-1 b by the factor, as a function of b.  Its argument
        objects are built once: a solve costs one copy in and one out."""
        _check_band(factor)
        kd1, n = factor.shape
        work = np.empty(n)
        args = (b"L", _INT(n), _INT(kd1 - 1), _INT(1), factor.ctypes.data, _INT(kd1),
                work.ctypes.data, _INT(n), _INT(0), 1)
        info = args[8]
        pbtrs, one_thread = self._pbtrs, self._one_thread

        def solve(b: np.ndarray) -> np.ndarray:
            if b.shape != (n,):
                raise ValueError(f"right-hand side of shape {b.shape}, expected ({n},)")
            work[...] = b
            one_thread(pbtrs, *args)
            if info.value != 0:
                raise ValueError(f"dpbtrs failed with info={info.value}")
            return work.copy()

        solve.keep = (factor, work)  # the pointers in args stay valid
        return solve


class _SciPy:
    """scipy.linalg.lapack's dpbtrf/dpbtrs, imported on first use."""

    name = "scipy"

    def factor(self, ab: np.ndarray) -> int:
        from scipy.linalg.lapack import dpbtrf

        _check_band(ab)
        c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if not np.shares_memory(c, ab):
            ab[...] = c
        return int(info)

    def solver(self, factor: np.ndarray):
        from scipy.linalg.lapack import dpbtrs

        _check_band(factor)

        def solve(b: np.ndarray) -> np.ndarray:
            x, info = dpbtrs(factor, b, lower=1)
            if info != 0:
                raise ValueError(f"dpbtrs failed with info={info}")
            return x

        return solve


def load():
    """The numpy OpenBLAS routines where numpy exports them, else scipy's."""
    from numpy.linalg import _umath_linalg

    try:
        return _OpenBLAS(ctypes.CDLL(_umath_linalg.__file__))
    except (OSError, AttributeError):
        return _SciPy()


LAPACK = load()
