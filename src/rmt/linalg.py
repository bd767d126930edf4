"""Dense complex-matrix substrate: Hermitian eigendecompositions, sample
covariances and their spectra, seeded complex Gaussian draws and matrix file
round-trips.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; this module
only adds the validation, conventions (ascending eigenvalues, unit-variance
proper Gaussians) and reproducible stream handling the estimators rely on.

Every sample covariance and sample spectrum comes from one Hermitian kernel on
the OpenBLAS bundled with numpy, called through ``ctypes``, which releases the
GIL: ``zherk`` reads Y where it lies and writes one triangle of (1/n) Y Y^H,
and LAPACKE's ``zheevd``, the routine ``np.linalg.eigvalsh`` calls, solves that
triangle in place.  Both come from numpy's own library, not from
``scipy.linalg.blas``: importing scipy loads a second OpenBLAS with a thread
pool of its own, and a zherk Gram through it slowed CLI sessions ~40% on a
2-core host.  Where numpy ships no OpenBLAS, the Gram is one complex product
and the eigensolve ``np.linalg.eigvalsh``, with the same conventions.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "RngStream",
    "hermitian_eig",
    "sample_covariance",
    "sample_spectrum",
    "sample_eigh",
    "complex_gaussian",
    "haar_unitary",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_matrix_bin",
    "load_matrix_bin",
]

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream).

    Philox streams with distinct keys are independent, so one ``RngStream``
    per Monte-Carlo trial gives reproducible, order-free parallelism.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream < 2**64):
            raise ParameterError("seed and stream must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _check_square_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.conj().T)) > HERMITICITY_RTOL * scale:
        raise DimensionError("matrix is not Hermitian within 1e-12 relative tolerance")
    return a


def hermitian_eig(a):
    """Eigendecompose a Hermitian matrix from outside, eigenvalues ascending,
    as numpy's ``EighResult``.

    Raises :class:`DimensionError` on non-square or non-Hermitian input.
    """
    return np.linalg.eigh(_check_square_hermitian(a))


def _observations(y) -> np.ndarray:
    y = np.ascontiguousarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[0] == 0 or y.shape[1] == 0:
        raise DimensionError(f"expected a nonempty N x n matrix, got shape {y.shape}")
    return y


def sample_covariance(y) -> np.ndarray:
    """Sample covariance (1/n) Y Y^H of n column observations.

    :func:`_gram_into` gives one triangle and the other is its mirror, so the
    result is exactly Hermitian with a real diagonal, which keeps eigh
    deterministic; ``np.linalg.eigvalsh`` of it is :func:`sample_spectrum`
    bit for bit.
    """
    y = _observations(y)
    n_dim = y.shape[0]
    c = _gram_into(y, np.empty((n_dim, n_dim), dtype=complex))
    np.copyto(c, c.conj().T, where=np.tri(n_dim, k=-1, dtype=bool))
    return c


def sample_spectrum(y) -> np.ndarray:
    """Ascending eigenvalues of the sample covariance (1/n) Y Y^H: the bits of
    ``np.linalg.eigvalsh(sample_covariance(y))``, from one triangle, with no
    copy of a C-contiguous complex128 Y and no copy of the Gram."""
    y = _observations(y)
    n_dim = y.shape[0]
    return _eigvalsh_into(_gram_into(y, np.empty((n_dim, n_dim), dtype=complex)), np.empty(n_dim))


def sample_eigh(y):
    """Eigenpairs of the sample covariance (1/n) Y Y^H, eigenvalues ascending, as
    numpy's ``EighResult``: the one route by which rmt reads sample eigenvectors."""
    return np.linalg.eigh(sample_covariance(y))


# --- the Hermitian kernel ----------------------------------------------------
#
# Helper threads call these private functions: nothing an instrumenter of the
# calling thread wraps (the public names, ``np.linalg``) runs off that thread,
# except in the fallbacks, which callers run on one thread.

_ROW_MAJOR, _COL_MAJOR, _UPPER, _NO_TRANS = 101, 102, 121, 111  # CBLAS and LAPACKE codes
BLOCK_BLAS_THREADS = 1  # a Monte-Carlo block's OpenBLAS threads, where numpy's bundled library allows pinning


@functools.cache  # looked up on the first Gram, never at import
def _numpy_openblas():
    """The OpenBLAS bundled with numpy, as ``get_threads``, ``set_threads``,
    ``zherk``, ``zheevd`` (None where the library has no LAPACKE) and its
    build string ``config``, or None when this numpy build does not ship it.
    scipy's copy is never used."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            zherk, config = lib.scipy_cblas_zherk64_, lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        # ILP64: blasint and lapack_int are 64-bit, the CBLAS and LAPACKE codes C ints
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        get.restype, get.argtypes = ctypes.c_int, ()
        put.restype, put.argtypes = None, (ctypes.c_int,)
        config.restype, config.argtypes = ctypes.c_char_p, ()
        zherk.restype = None
        zherk.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int, i64, i64, ctypes.c_double,
                          ptr, i64, ctypes.c_double, ptr, i64)
        zheevd = getattr(lib, "scipy_LAPACKE_zheevd64_", None)
        if zheevd is not None:
            zheevd.restype = i64
            zheevd.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr)
        return SimpleNamespace(get_threads=get, set_threads=put, zherk=zherk, zheevd=zheevd,
                               config=config().decode("ascii", "replace"))
    return None


def _blas_build() -> dict:
    """numpy's version, the build string of its bundled OpenBLAS (None where
    it ships none) and scipy's installed version (None where it is absent),
    as run manifests record them.  scipy's is read from package metadata:
    importing scipy would load its own OpenBLAS."""
    from importlib import metadata  # deferred: only manifests need it

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    blas = _numpy_openblas()
    return {"numpy": np.__version__, "openblas": blas.config if blas else None, "scipy": scipy}


@contextlib.contextmanager
def _pinned_blas():
    """Run the body with numpy's bundled OpenBLAS at ``BLOCK_BLAS_THREADS``
    threads and restore the caller's count after, also when the body raises;
    a build without that library runs the body unpinned."""
    blas = _numpy_openblas()
    if not blas:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(BLOCK_BLAS_THREADS)
    try:
        yield
    finally:
        blas.set_threads(before)


def _gram_into(y, c):
    """The upper triangle of (1/n) Y Y^H into ``c``, C-ordered complex N x N,
    from the C-contiguous complex128 N x n ``y``: one zherk with alpha = 1/n
    that reads y where it lies, with a real diagonal, and leaves c's strict
    lower triangle as it was.  Without numpy's OpenBLAS one complex product
    fills all of c."""
    n_dim, n = y.shape
    if not (y.dtype == complex and y.flags.c_contiguous and c.shape == (n_dim, n_dim)
            and c.dtype == complex and c.flags.c_contiguous):
        raise ValueError("zherk needs a C-contiguous complex128 Y and a C-ordered complex128 N x N output")
    blas = _numpy_openblas()
    if not blas:
        np.divide(y @ y.conj().T, n, out=c)
        np.fill_diagonal(c.imag, 0.0)  # the product's diagonal carries rounding in its imaginary parts
        return c
    blas.zherk(_ROW_MAJOR, _UPPER, _NO_TRANS, n_dim, n, 1.0 / n, y.ctypes.data, n, 0.0, c.ctypes.data, n_dim)
    return c


def _eigvalsh_into(gram, w):
    """Ascending eigenvalues of the Hermitian matrix whose upper triangle the
    C-ordered ``gram`` holds, as :func:`_gram_into` leaves it, into ``w``.

    Read column-major, that triangle is the lower triangle of the conjugate
    matrix, which has the same eigenvalues: LAPACKE's zheevd (no vectors,
    lower triangle) solves it in place, the routine and arguments of
    ``np.linalg.eigvalsh``, so the bits of ``np.linalg.eigvalsh(gram.T)``, its
    fallback where numpy's library lacks LAPACKE.  Negation is exact and
    rounding symmetric, so solving the conjugate gives the same bits as
    ``eigvalsh`` of the mirrored matrix, which the tests check.  Overwrites
    gram's upper triangle."""
    n = gram.shape[0]
    if not (gram.shape == (n, n) and gram.dtype == complex and gram.flags.c_contiguous
            and w.shape == (n,) and w.dtype == float and w.flags.c_contiguous):
        raise ValueError("zheevd needs a square C-ordered complex128 matrix and a float64 vector of its size")
    blas = _numpy_openblas()
    if not (blas and blas.zheevd):
        w[:] = np.linalg.eigvalsh(gram.T)
        return w
    info = blas.zheevd(_COL_MAJOR, b"N", b"L", n, gram.ctypes.data, n, w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (LAPACKE zheevd info {info})")
    return w


DRAW_CHUNK = 16384  # normals per draw call (128 KB), so the draw buffer stays in cache


def _gaussian_into(y, g, scale=None, chunk=None):
    """Fill the complex128 N x n ``y`` with the bits of ``complex_gaussian(N,
    n, g)``, or of ``scale * complex_gaussian(N, n, g)`` for an (N, 1) float
    ``scale``, and return it.

    The stream fills every real part, then every imaginary part, as
    :func:`complex_gaussian` orders them, as many rows of n normals per call
    as the C-contiguous float64 buffer ``chunk`` holds (about ``DRAW_CHUNK``
    when made here, where it is None or shorter than a row); each chunk is
    written into its rows of y times sqrt(1/2), then times ``scale``, so
    nothing of Y's size is drawn or scaled apart from y itself.
    """
    n_dim, n = y.shape
    if chunk is None or chunk.size < n:
        chunk = np.empty(min(n_dim, max(1, DRAW_CHUNK // n)) * n)
    rows, half = min(n_dim, chunk.size // n), np.sqrt(0.5)
    chunk = chunk.reshape(-1)[:rows * n].reshape(rows, n)
    for part in (y.real, y.imag):
        for r in range(0, n_dim, rows):
            x = chunk[:n_dim - r]
            g.standard_normal(out=x)
            rows_y = part[r:r + len(x)]
            np.multiply(x, half, out=rows_y)
            if scale is not None:
                np.multiply(rows_y, scale[r:r + len(x)], out=rows_y)
    return y


def complex_gaussian(n_rows: int, n_cols: int, rng) -> np.ndarray:
    """Proper complex Gaussian matrix: zero mean, E|x|^2 = 1 per entry.

    Real and imaginary parts are independent N(0, 1/2); the stream fills all
    real parts first, then all imaginary parts (see :func:`_gaussian_into`).
    """
    if n_rows < 1 or n_cols < 1:
        raise ParameterError("matrix dimensions must be >= 1")
    return _gaussian_into(np.empty((n_rows, n_cols), dtype=complex), _as_generator(rng))


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian, phase-fixed."""
    g = _as_generator(rng)
    q, r = np.linalg.qr(complex_gaussian(n, n, g))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- file round-trips -------------------------------------------------------
#
# CSV: header re_0,im_0,...,re_{c-1},im_{c-1}; one matrix row per line.
# Binary: magic RMTM, little-endian int64 dims header, then the row-major
# matrix as interleaved (re, im) float64 pairs, which is the "<c16" layout,
# so both formats read and write as views of the complex128 matrix.

_BIN_MAGIC = b"RMTM"
_BIN_HEADER = struct.Struct("<qq")


def _as_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError("only 2-d matrices are supported")
    return a


def save_matrix_csv(path, a) -> None:
    a = _as_matrix(a)
    header = ",".join(f"re_{j},im_{j}" for j in range(a.shape[1]))
    np.savetxt(path, a.view(np.float64), delimiter=",", header=header, comments="")


def load_matrix_csv(path) -> np.ndarray:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] % 2 != 0:
        raise DimensionError("matrix CSV must hold re/im column pairs")
    return raw.view(complex)


def save_matrix_bin(path, a) -> None:
    a = _as_matrix(a)
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(_BIN_HEADER.pack(*a.shape))
        fh.write(a.astype("<c16", copy=False).data)


def load_matrix_bin(path) -> np.ndarray:
    """The matrix in a binary file, as a read-only view of the file's
    memory-mapped payload: nothing is copied, and nothing read until used.

    The payload starts 20 bytes into the file, so the view is not 8-byte
    aligned: numpy takes its unaligned loops on it, and zherk reads it with
    unaligned loads, which the tests check against an aligned copy.  A file
    truncated by another writer while the view is in use faults the process
    (SIGBUS) instead of raising."""
    with open(path, "rb") as fh:
        if fh.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise ParameterError("not a matrix binary file (bad magic)")
        header = fh.read(_BIN_HEADER.size)
        if len(header) != _BIN_HEADER.size:
            raise DimensionError("binary matrix file ends inside its dims header")
        rows, cols = _BIN_HEADER.unpack(header)
        if rows < 0 or cols < 0:
            raise DimensionError(f"binary matrix file has negative dims {rows} x {cols}")
        offset = fh.tell()
        payload = os.fstat(fh.fileno()).st_size - offset
        if payload != 16 * rows * cols:
            raise DimensionError(f"binary payload of {payload} bytes does not match dims {rows} x {cols}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)  # the file checked above; it outlives fh
    data = np.frombuffer(mapped, dtype="<c16", count=rows * cols, offset=offset).reshape(rows, cols)
    return data.astype(complex, copy=False)
