import mmap
import struct

import numpy as np
import pytest

import rmt.linalg as linalg
from rmt.errors import DimensionError, ParameterError
from rmt.linalg import (
    RngStream,
    _gram_into,
    complex_gaussian,
    haar_unitary,
    hermitian_eig,
    load_matrix_bin,
    load_matrix_csv,
    sample_covariance,
    sample_eigh,
    sample_spectrum,
    save_matrix_bin,
    save_matrix_csv,
)


def random_hermitian(n, rng):
    a = complex_gaussian(n, n, rng)
    return (a + a.conj().T) / 2


def test_identity_eigendecomposition():
    eig = hermitian_eig(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1, 1, 1])
    assert np.allclose(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(3), atol=1e-12)


def test_diagonal_eigenvalues_sorted_ascending():
    eig = hermitian_eig(np.diag([7.0, 1.0, 3.0]))
    assert np.allclose(eig.eigenvalues, [1, 3, 7])


def test_reconstruction_oracle_random_8x8():
    rng = RngStream(42).generator()
    a = random_hermitian(8, rng)
    eig = hermitian_eig(a)
    u = eig.eigenvectors
    err = np.linalg.norm((u * eig.eigenvalues) @ u.conj().T - a) / np.linalg.norm(a)
    assert err < 1e-10
    # column orthonormality
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_eigendecomposition_roundtrip_eigenvalues():
    rng = RngStream(7).generator()
    for n in (2, 5, 12):
        a = random_hermitian(n, rng)
        eig = hermitian_eig(a)
        u = eig.eigenvectors
        back = hermitian_eig((u * eig.eigenvalues) @ u.conj().T)
        scale = np.linalg.norm(a)
        assert np.max(np.abs(back.eigenvalues - eig.eigenvalues)) <= 1e-9 * scale


def test_non_square_and_non_hermitian_rejected():
    with pytest.raises(DimensionError):
        hermitian_eig(np.ones((2, 3)))
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        hermitian_eig(bad)


def test_sample_covariance_identity_case():
    assert np.allclose(sample_covariance(np.eye(2)), np.eye(2) / 2)


def test_sample_covariance_rank_one():
    y = np.array([[1.0 + 1j], [2.0]])
    c = sample_covariance(y)
    assert np.allclose(c, np.outer(y[:, 0], y[:, 0].conj()))
    assert np.linalg.matrix_rank(c) == 1


def test_sample_covariance_trace_and_psd():
    rng = RngStream(3).generator()
    y = complex_gaussian(6, 20, rng)
    c = sample_covariance(y)
    assert np.isclose(np.trace(c).real, np.sum(np.abs(y) ** 2) / 20)
    assert np.linalg.eigvalsh(c)[0] > -1e-12


def test_sample_covariance_column_permutation_invariant():
    rng = RngStream(5).generator()
    y = complex_gaussian(4, 9, rng)
    perm = rng.permutation(9)
    assert np.allclose(sample_covariance(y), sample_covariance(y[:, perm]))


def test_gram_duality_shared_spectrum():
    # nonzero part of eig((1/n) Y Y^H) equals (N/n) * nonzero part of eig((1/N) Y^H Y)
    rng = RngStream(11).generator()
    n_dim, n = 5, 8
    y = complex_gaussian(n_dim, n, rng)
    big = np.linalg.eigvalsh(y @ y.conj().T / n)
    small = np.linalg.eigvalsh(y.conj().T @ y / n_dim)
    nz_big = np.sort(big)[-n_dim:]
    nz_small = np.sort(small)[-n_dim:]
    assert np.allclose(nz_big, (n_dim / n) * nz_small)


def test_sample_covariance_rejects_empty():
    with pytest.raises(DimensionError):
        sample_covariance(np.empty((0, 3)))


def test_complex_gaussian_moments():
    g = complex_gaussian(1000, 1000, RngStream(123))
    assert abs(np.mean(g)) < 3e-3           # CLT bound 3/sqrt(1e6)
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 5e-3
    # proper: real/imag each carry half the variance
    assert abs(np.var(g.real) - 0.5) < 5e-3
    assert abs(np.var(g.imag) - 0.5) < 5e-3


def test_rng_stream_determinism():
    a = complex_gaussian(10, 7, RngStream(99, 5))
    b = complex_gaussian(10, 7, RngStream(99, 5))
    assert np.array_equal(a, b)
    c = complex_gaussian(10, 7, RngStream(99, 6))
    assert not np.array_equal(a, c)


def test_rng_stream_rejects_bad_seed():
    with pytest.raises(ParameterError):
        RngStream(-1)


def test_haar_unitary_is_unitary():
    u = haar_unitary(12, RngStream(17))
    assert np.max(np.abs(u.conj().T @ u - np.eye(12))) < 1e-12


def test_matrix_csv_roundtrip(tmp_path):
    rng = RngStream(1).generator()
    a = complex_gaussian(3, 5, rng)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, a)
    header = path.read_text().splitlines()[0]
    assert header.startswith("re_0,im_0")
    b = load_matrix_csv(path)
    assert np.allclose(a, b)


def test_matrix_bin_roundtrip(tmp_path):
    rng = RngStream(2).generator()
    a = complex_gaussian(17, 4, rng)
    path = tmp_path / "m.bin"
    save_matrix_bin(path, a)
    b = load_matrix_bin(path)
    assert np.array_equal(a, b)


# --- Gram, draw and file layout against reference formulas -----------------------


def zgemm_covariance(y):
    """The complex-product sample covariance, kept as the oracle."""
    c = y @ y.conj().T / y.shape[1]
    return (c + c.conj().T) / 2


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 11), (30, 12), (64, 200), (256, 768)])
def test_sample_covariance_matches_complex_product(shape):
    y = complex_gaussian(*shape, RngStream(31, shape[0] * 1000 + shape[1]))
    want = zgemm_covariance(y)
    got = sample_covariance(y)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(got, got.conj().T)
    assert np.all(np.diagonal(got).imag == 0)


def test_sample_covariance_accepts_real_and_strided_input():
    y = complex_gaussian(6, 20, RngStream(4))
    for x in (y[:, ::2], y.T[::2].T, y.real):
        want = zgemm_covariance(x.astype(complex))
        assert np.max(np.abs(sample_covariance(x) - want)) <= 1e-14 * np.max(np.abs(want))


# --- the Hermitian kernel, on numpy's OpenBLAS and on its fallback ---------------


@pytest.fixture(params=["openblas", "fallback"])
def library(request, monkeypatch):
    """Run a test on numpy's bundled OpenBLAS, then on the route taken where numpy ships none."""
    if request.param == "fallback":
        monkeypatch.setattr(linalg, "_numpy_openblas", lambda: None)
    elif linalg._numpy_openblas() is None:
        pytest.skip("this numpy build does not bundle OpenBLAS")
    return request.param


def complex_product_spectrum(y):
    """The oracle: eigvalsh of the complex product."""
    return np.linalg.eigvalsh(y @ y.conj().T / y.shape[1])


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (12, 5), (64, 200), (256, 768), (300, 3000)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_sample_spectrum_matches_the_complex_product(shape, library):
    y = complex_gaussian(*shape, RngStream(32, shape[0] * 10_000 + shape[1]))
    want = complex_product_spectrum(y)
    got = sample_spectrum(y)
    assert got.shape == want.shape and np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * want[-1]
    # the eigenvector paths' covariance gives the same spectrum, bit for bit
    assert got.tobytes() == np.linalg.eigvalsh(sample_covariance(y)).tobytes()
    assert all(g.tobytes() == w.tobytes() for g, w in zip(sample_eigh(y), np.linalg.eigh(sample_covariance(y))))


def test_sample_spectrum_accepts_real_and_strided_input(library):
    y = complex_gaussian(6, 20, RngStream(4))
    for x in (y[:, ::2], y.T[::2].T, y.real, np.asfortranarray(y)):
        want = complex_product_spectrum(x.astype(complex))
        assert np.max(np.abs(sample_spectrum(x) - want)) <= 1e-13 * want[-1]
    with pytest.raises(DimensionError):
        sample_spectrum(np.empty((3, 0)))


def test_sample_covariance_stays_exactly_hermitian(library):
    y = complex_gaussian(30, 12, RngStream(6))
    got = sample_covariance(y)
    assert np.array_equal(got, got.conj().T) and np.all(np.diagonal(got).imag == 0)
    want = y @ y.conj().T / 12
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_gram_kernel_refuses_a_layout_it_cannot_read():
    y, c = complex_gaussian(4, 6, RngStream(7)), np.empty((4, 4), dtype=complex)
    for bad_y, bad_c in ((y.real.copy(), c), (np.asfortranarray(y), c), (y, c[:3, :3]), (y, np.empty((4, 4)))):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            _gram_into(bad_y, bad_c)


def test_complex_gaussian_bit_identical_to_two_draws():
    g = RngStream(77, 3).generator()
    re = g.standard_normal((256, 768))
    im = g.standard_normal((256, 768))
    want = (re + 1j * im) * np.sqrt(0.5)
    assert complex_gaussian(256, 768, RngStream(77, 3)).tobytes() == want.tobytes()


def complex_gaussian_oracle(n_rows, n_cols, g):
    """complex_gaussian as it was before the chunked fill: one (2, N, n) draw."""
    re, im = g.standard_normal((2, n_rows, n_cols))
    out = np.empty((n_rows, n_cols), dtype=complex)
    np.multiply(re, np.sqrt(0.5), out=out.real)
    np.multiply(im, np.sqrt(0.5), out=out.imag)
    return out


# 1 x 20000 and 3 x 16385: rows wider than one chunk; 7 x 5000: three rows a
# chunk, which 7 does not divide; 7 x 1 and 5 x 3: the whole draw in one chunk
@pytest.mark.parametrize("shape", [(1, 20000), (3, 16385), (7, 1), (5, 3), (7, 5000)])
def test_chunked_fill_equals_one_draw_bit_for_bit(shape):
    got = complex_gaussian(*shape, RngStream(41, 2))
    want = complex_gaussian_oracle(*shape, RngStream(41, 2).generator())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # scaled rows, into a reused buffer, as the spectrum lanes and the models' draws fill them
    scale = np.linspace(0.5, 3.0, shape[0])[:, None]
    chunk = np.empty((max(1, linalg.DRAW_CHUNK // shape[1]), shape[1]))
    y = np.empty(shape, dtype=complex)
    for _ in range(2):
        linalg._gaussian_into(y, RngStream(41, 2).generator(), scale, chunk)
        assert y.tobytes() == (scale * want).tobytes()
    # the fill leaves the generator where one (2, N, n) draw leaves it
    g, h = RngStream(41, 2).generator(), RngStream(41, 2).generator()
    complex_gaussian(*shape, g)
    h.standard_normal((2, *shape))
    assert g.standard_normal() == h.standard_normal()


class CountingGenerator:
    """A numpy Generator that counts its standard_normal calls."""

    def __init__(self, g):
        self.g, self.calls = g, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.g.standard_normal(*args, **kwargs)


# one pass over the 2N rows of real, then imaginary parts: 4 x 8 is one call; 256 x 768, at 21 rows a
# chunk, takes 25 calls where a pass per part took 26; 4 x 2048 is DRAW_CHUNK normals, one call, and
# 4 x 2049 one row more than a chunk of 7 rows; 6 x 1200 is one row under a chunk of 13, 7 x 1200 one over
@pytest.mark.parametrize("shape, calls", [((1, 1), 1), ((4, 8), 1), ((256, 768), 25), ((4, 2047), 1),
                                          ((4, 2048), 1), ((4, 2049), 2), ((6, 1200), 1), ((7, 1200), 2)])
def test_fill_is_one_draw_split_into_real_and_imaginary_halves(shape, calls):
    n_rows, n_cols = shape
    normals = RngStream(43, 1).generator().standard_normal(2 * n_rows * n_cols)
    want = np.empty(shape, dtype=complex)
    np.multiply(normals[:n_rows * n_cols].reshape(shape), np.sqrt(0.5), out=want.real)
    np.multiply(normals[n_rows * n_cols:].reshape(shape), np.sqrt(0.5), out=want.imag)
    g = CountingGenerator(RngStream(43, 1).generator())
    assert linalg._gaussian_into(np.empty(shape, dtype=complex), g).tobytes() == want.tobytes()
    assert g.calls == calls
    scale = np.linspace(0.5, 3.0, n_rows)[:, None]
    got = linalg._gaussian_into(np.empty(shape, dtype=complex), RngStream(43, 1).generator(), scale)
    assert got.tobytes() == (scale * want).tobytes()


def special_values_matrix():
    a = np.empty((2, 4), dtype=complex)
    a.real = [[1.0, -0.0, 5e-324, np.nan], [-np.inf, 0.0, 2.5e-310, -3.0]]
    a.imag = [[np.inf, -0.0, 1.0, 2.0], [np.nan, -0.0, -5e-324, np.inf]]
    return a


@pytest.mark.parametrize("save, load, name", [(save_matrix_bin, load_matrix_bin, "m.bin"),
                                               (save_matrix_csv, load_matrix_csv, "m.csv")])
def test_matrix_roundtrip_byte_exact_on_special_values(tmp_path, save, load, name):
    a = special_values_matrix()
    save(tmp_path / name, a)
    b = load(tmp_path / name)
    assert b.dtype == np.complex128 and b.shape == a.shape
    assert b.tobytes() == a.tobytes()


def test_matrix_bin_loads_as_a_read_only_map(tmp_path):
    a = complex_gaussian(17, 4, RngStream(2))
    path = tmp_path / "m.bin"
    save_matrix_bin(path, a)
    b = load_matrix_bin(path)
    assert b.dtype == np.complex128 and b.flags.c_contiguous and not b.flags.writeable
    base = b
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)  # a view of the mapped file, not a copy
    with pytest.raises(ValueError, match="read-only"):
        b[0, 0] = 0
    assert b.tobytes() == a.tobytes()
    save_matrix_bin(path, np.empty((0, 3)))
    assert load_matrix_bin(path).shape == (0, 3)


@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (12, 5), (64, 200), (300, 3000)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_kernel_reads_the_unaligned_map_as_an_aligned_copy(tmp_path, shape, library):
    # the payload sits 20 bytes into the file, so the mapped view is not 8-byte aligned
    a = complex_gaussian(*shape, RngStream(5, shape[0]))
    path = tmp_path / "m.bin"
    save_matrix_bin(path, a)
    b = load_matrix_bin(path)
    assert not b.flags.aligned and a.flags.aligned
    assert sample_spectrum(b).tobytes() == sample_spectrum(a).tobytes()
    assert sample_covariance(b).tobytes() == sample_covariance(a).tobytes()
    assert all(g.tobytes() == w.tobytes() for g, w in zip(sample_eigh(b), np.linalg.eigh(sample_covariance(a))))


def test_matrix_bin_layout_is_interleaved_float64(tmp_path):
    a = special_values_matrix()
    path = tmp_path / "m.bin"
    save_matrix_bin(path, a)
    pairs = b"".join(struct.pack("<dd", z.real, z.imag) for z in a.ravel())
    assert path.read_bytes() == b"RMTM" + struct.pack("<qq", 2, 4) + pairs


@pytest.mark.parametrize("tail", [
    b"\x01\x00",                                   # header cut short
    struct.pack("<qq", 2, -3),                     # negative dims
    struct.pack("<qq", 2, 3) + bytes(16 * 5),      # one element short
    struct.pack("<qq", 2, 3) + bytes(16 * 6 + 1),  # one byte too long
    struct.pack("<qq", 2, 3) + bytes(1),           # a one-byte payload
], ids=["short-header", "negative-dims", "element-short", "byte-over", "one-byte"])
def test_malformed_matrix_bin_refused(tmp_path, tail):
    path = tmp_path / "m.bin"
    path.write_bytes(b"RMTM" + tail)
    with pytest.raises(DimensionError):
        load_matrix_bin(path)


def test_matrix_bin_bad_magic_refused(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + struct.pack("<qq", 1, 1) + bytes(16))
    with pytest.raises(ParameterError):
        load_matrix_bin(path)
