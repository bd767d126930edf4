"""Dense complex-matrix substrate: Hermitian eigendecompositions, sample
covariances, seeded complex Gaussian draws and matrix file round-trips.

Matrices are plain ``numpy.ndarray`` objects of dtype complex128; this module
only adds the validation, conventions (ascending eigenvalues, unit-variance
proper Gaussians) and reproducible stream handling the estimators rely on.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "RngStream",
    "HermitianEigen",
    "hermitian_eig",
    "sample_covariance",
    "split_gram",
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


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column i of ``eigenvectors`` pairs
    with ``eigenvalues[i]`` and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _check_square_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0 and np.max(np.abs(a - a.conj().T)) > HERMITICITY_RTOL * scale:
        raise DimensionError("matrix is not Hermitian within 1e-12 relative tolerance")
    return a


def hermitian_eig(a) -> HermitianEigen:
    """Eigendecompose a Hermitian matrix, eigenvalues ascending.

    Raises :class:`DimensionError` on non-square or non-Hermitian input.
    """
    a = _check_square_hermitian(a)
    w, v = np.linalg.eigh(a)
    return HermitianEigen(w, v)


def sample_covariance(y) -> np.ndarray:
    """Sample covariance (1/n) Y Y^H of n column observations, via :func:`split_gram`."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[0] == 0 or y.shape[1] == 0:
        raise DimensionError(f"expected a nonempty N x n matrix, got shape {y.shape}")
    ab = np.empty((y.shape[0], 2, y.shape[1]))
    ab[:, 0], ab[:, 1] = y.real, y.imag
    return split_gram(ab)


def split_gram(ab: np.ndarray) -> np.ndarray:
    """(1/n) Y Y^H from the contiguous (N, 2, n) real split of Y = A + iB
    (``ab[:, 0] = A``, ``ab[:, 1] = B``).

    With Z = [A B] (the split read as N x 2n), Y Y^H = Z Z^T + i(B A^T - A B^T):
    one real rank-k product on numpy's syrk path plus one real product, half
    the flops of the complex product.  The split is contiguous because numpy's
    product of the strided ``.real``/``.imag`` views is slower.  The result is
    exactly Hermitian with a real diagonal, which keeps eigh deterministic.
    Stay on numpy's BLAS: ``scipy.linalg.blas`` starts a second OpenBLAS
    thread pool, and a zherk Gram through it slowed CLI sessions ~40% on a
    2-core host.
    """
    n_dim = ab.shape[0]
    return _split_gram(ab, np.empty((n_dim, n_dim), dtype=complex), np.empty((n_dim, n_dim)))


def _split_gram(ab: np.ndarray, c: np.ndarray, work: np.ndarray) -> np.ndarray:
    """:func:`split_gram` into ``c`` (complex N x N, either order), through
    ``work`` (real N x N), so a loop of equal-sized Grams can reuse both.  It
    is a function object of its own, so helper threads can call it while an
    instrumenter wraps the public name on the calling thread."""
    n_dim, _, n = ab.shape
    z = ab.reshape(n_dim, 2 * n)
    np.matmul(z, z.T, out=work)
    np.divide(work, n, out=c.real)
    np.matmul(ab[:, 1], ab[:, 0].T, out=work)
    np.subtract(work, work.T, out=c.imag)
    np.divide(c.imag, n, out=c.imag)
    return c


def complex_gaussian(n_rows: int, n_cols: int, rng) -> np.ndarray:
    """Proper complex Gaussian matrix: zero mean, E|x|^2 = 1 per entry.

    Real and imaginary parts are independent N(0, 1/2); the stream fills all
    real parts first, then all imaginary parts.
    """
    if n_rows < 1 or n_cols < 1:
        raise ParameterError("matrix dimensions must be >= 1")
    re, im = _as_generator(rng).standard_normal((2, n_rows, n_cols))
    out = np.empty((n_rows, n_cols), dtype=complex)
    np.multiply(re, np.sqrt(0.5), out=out.real)
    np.multiply(im, np.sqrt(0.5), out=out.imag)
    return out


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
    with open(path, "rb") as fh:
        if fh.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
            raise ParameterError("not a matrix binary file (bad magic)")
        header = fh.read(_BIN_HEADER.size)
        if len(header) != _BIN_HEADER.size:
            raise DimensionError("binary matrix file ends inside its dims header")
        rows, cols = _BIN_HEADER.unpack(header)
        if rows < 0 or cols < 0:
            raise DimensionError(f"binary matrix file has negative dims {rows} x {cols}")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 16 * rows * cols:
            raise DimensionError(f"binary payload of {payload} bytes does not match dims {rows} x {cols}")
        data = np.fromfile(fh, dtype="<c16", count=rows * cols)
    return data.astype(complex, copy=False).reshape(rows, cols)
