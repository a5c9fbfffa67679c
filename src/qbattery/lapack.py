"""Symmetric eigensolver that works in place: LAPACK dsyevd through ctypes.

``np.linalg.eigh`` copies its input into a Fortran-order work matrix and
allocates the eigenvectors as a third D x D array; ``scipy.linalg.eigh``
can overwrite its input but holds the GIL through the solve. Here dsyevd
is called through a ctypes function pointer, which releases the GIL, and
overwrites the caller's buffer with the eigenvectors.

The pointer is looked up in the symbol scope of numpy's linalg extension,
under the names numpy's wheels give the ILP64 OpenBLAS symbol, so the
solve shares numpy's thread pool. (scipy links a second OpenBLAS whose
threads keep spinning after each call; at two BLAS threads on two cores
they slowed numpy's GEMMs between solves about twofold.) Where that symbol
is missing, scipy's ``cython_lapack`` capsule supplies the pointer. Either
is resolved on first use, not at import.

The same scope exports OpenBLAS's process-wide thread-count getter and
setter. ``blas_thread_budget`` uses them so that a pool of W worker
threads runs at most cores // W BLAS threads each; where they are missing
it changes nothing. (``openblas_set_num_threads_local`` is no help: in
numpy's bundled OpenBLAS 0.3.31 it calls the process-wide setter and
stores into a plain global, so a per-worker set-and-restore would race.)
``check_memory`` counts one solve per worker of the pool that is running.

To Fortran a C-order buffer is the transposed matrix, so uplo = "L" reads
the upper triangle of a symmetric buffer: on an exactly symmetric matrix
the data numpy reads. With the same workspace query the eigenpairs are bit
for bit those of ``np.linalg.eigh``. They come back as rows of the buffer,
and a tiled transpose in place turns them into columns.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

from .errors import ConfigError, NumericalBreakdownError

_TILE = 256     # side of the square tiles swapped by _transpose_in_place
# dsyevd with 64-bit integers in numpy's wheels (numpy 2, numpy 1.2x)
_NUMPY_SYMBOLS = ("scipy_dsyevd_64_", "dsyevd_64_")
# OpenBLAS's process-wide thread count in numpy's wheels (numpy 2)
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_set_num_threads64_")

_pool = threading.local()   # .size: workers of the pool this thread serves


@functools.cache
def _numpy_scope():
    """The symbol scope of numpy's linalg extension, or None."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


def _numpy_dsyevd():
    """Address of dsyevd in numpy's ILP64 LAPACK, or None."""
    scope = _numpy_scope()
    if scope is None:
        return None
    for name in _NUMPY_SYMBOLS:
        function = getattr(scope, name, None)
        if function is not None:
            return ctypes.cast(function, ctypes.c_void_p).value
    return None


def _scipy_dsyevd():
    """Address of dsyevd behind scipy's cython_lapack (32-bit integers)."""
    from scipy.linalg import cython_lapack
    capsule = cython_lapack.__pyx_capi__["dsyevd"]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    return get_pointer(capsule, get_name(capsule))


@functools.cache
def _dsyevd():
    """(dsyevd, its integer dtype)."""
    address, dtype = _numpy_dsyevd(), np.int64
    if address is None:
        address, dtype = _scipy_dsyevd(), np.intc
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info: all pointers
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)(address), dtype


def _call(n, a, w, work, lwork, iwork, liwork):
    """One dsyevd call with jobz = "V", uplo = "L"; returns info."""
    function, dtype = _dsyevd()
    ints = np.array([n, max(1, n), lwork, liwork, 0], dtype=dtype)
    n_, lda, lwork_, liwork_, info = (ints[k:].ctypes.data for k in range(5))
    function(b"V", b"L", n_, a.ctypes.data, lda, w.ctypes.data,
             work.ctypes.data, lwork_, iwork.ctypes.data, liwork_, info)
    return int(ints[-1])


@functools.cache
def workspace(n):
    """(lwork, liwork) from dsyevd's workspace query for an n x n matrix,
    the sizes numpy's eigh allocates; queried once per n."""
    work = np.zeros(1)
    iwork = np.zeros(1, dtype=_dsyevd()[1])
    info = _call(n, np.zeros(1), np.zeros(1), work, -1, iwork, -1)
    if info != 0:
        raise NumericalBreakdownError(f"dsyevd workspace query: info={info}")
    return int(work[0]), int(iwork[0])


def solve_bytes(n):
    """Bytes held during an n x n solve: the matrix, the eigenvalues and
    dsyevd's double and integer workspaces."""
    lwork, liwork = workspace(n)
    width = np.dtype(_dsyevd()[1]).itemsize
    return 8 * n * n + 8 * n + 8 * lwork + width * liwork


def _physical_memory():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def pool_size():
    """Workers of the pool the calling thread serves; 1 outside a pool."""
    return getattr(_pool, "size", 1)


def join_pool(size):
    """Mark the calling worker thread as one of a pool of ``size``."""
    _pool.size = size


def check_memory(n):
    """Raise ConfigError when the n x n solves that the running pool can
    hold at once, one per worker, need more bytes than the machine's
    physical memory."""
    workers = pool_size()
    need, have = workers * solve_bytes(n), _physical_memory()
    if need > have:
        raise ConfigError(
            f"dense eigensolve at dimension {n} needs {need} bytes "
            f"({need / 2**30:.1f} GiB) for {workers} concurrent "
            f"solve(s), more than the {have} bytes of physical memory")


def cores():
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache
def _blas_threads():
    """(get, set) for OpenBLAS's process-wide thread count, or None."""
    scope = _numpy_scope()
    functions = [getattr(scope, name, None) for name in _THREAD_SYMBOLS]
    if scope is None or None in functions:
        return None
    get, set_ = functions
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def blas_thread_budget(workers):
    """Run the body, a pool of ``workers`` threads, with the BLAS thread
    count at max(1, min(current, cores() // workers)), restored after.

    Call it from the thread that starts the pool, before the pool starts:
    the count is process-wide. It never rises above the current count, so
    OPENBLAS_NUM_THREADS stays the ceiling. A no-op where numpy's OpenBLAS
    does not export the thread-count symbols."""
    symbols = _blas_threads()
    if symbols is None:
        yield
        return
    get, set_ = symbols
    before = get()
    set_(max(1, min(before, cores() // workers)))
    try:
        yield
    finally:
        set_(before)


def _transpose_in_place(a):
    """a <- a.T for a square C-order array, one tile pair at a time."""
    n = len(a)
    for i in range(0, n, _TILE):
        rows = slice(i, i + _TILE)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + _TILE, n, _TILE):
            cols = slice(j, j + _TILE)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def eigh_in_place(a):
    """Eigenvalues (ascending) of the symmetric C-order float64 array ``a``,
    which is overwritten with the eigenvectors as columns."""
    if a.dtype != np.float64 or not a.flags.c_contiguous \
            or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square C-contiguous float64 array")
    n = len(a)
    lwork, liwork = workspace(n)
    w = np.empty(n)
    info = _call(n, a, w, np.empty(lwork), lwork,
                 np.empty(liwork, dtype=_dsyevd()[1]), liwork)
    if info != 0:
        raise NumericalBreakdownError(f"dsyevd failed: info={info}")
    _transpose_in_place(a)
    return w
