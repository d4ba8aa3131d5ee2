"""Dense complex linear algebra for small qudit systems.

States are plain numpy arrays: a pure state is a length-d complex vector,
a density matrix is a d x d complex array. Bipartite operations take the
subsystem dimensions explicitly (e.g. ``dims=(3, 2)``); there is no wrapper
object. All functions are pure; randomness enters only through an explicit
seed or ``numpy.random.Generator``.
"""

import numpy as np

# Construction-time tolerances for state validation.
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
NORM_ATOL = 1e-10

# States per chunk of the Ginibre sampler `ginibre_dm_chunks`: each chunk's
# complex temporaries stay a few MB, however large n is.
CHUNK = 4096


def rng_from(seed):
    """Return a numpy Generator from a seed (or pass a Generator through)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# huge finite entries overflow the norm, trace or Hermiticity error to inf,
# which fails its check; the validators report that without a warning
@np.errstate(over="ignore")
def validate_pure_state(psi):
    """Check normalization of a state vector; return it as a complex array."""
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ValueError("state vector has non-finite entries")
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError(f"pure state must be a vector of length >= 2, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return psi


@np.errstate(over="ignore")
def validate_density_matrix(rho):
    """Check Hermiticity, unit trace and positivity; return a complex array.

    Raises ValueError on the first violated invariant; non-finite entries
    are rejected first, since NaN fails no comparison below.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if rho.size == 0:
        raise ValueError(f"density matrix is empty, got shape {rho.shape}")
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > HERM_ATOL:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_err:.3e}")
    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > TRACE_ATOL:
        raise ValueError(f"trace is not 1: |tr - 1| = {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(rho)[0]
    if min_eig < -PSD_ATOL:
        raise ValueError(f"not positive semidefinite: min eigenvalue = {min_eig:.3e}")
    return rho


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def basis_ket(d, i):
    """Computational basis vector |i> in dimension d."""
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    psi = np.zeros(d, dtype=complex)
    psi[i] = 1.0
    return psi


def dm_from_pure(psi):
    """Rank-1 projector |psi><psi| from a normalized state vector."""
    psi = validate_pure_state(psi)
    return np.outer(psi, psi.conj())


def maximally_mixed(d):
    """I/d."""
    return np.eye(d, dtype=complex) / d


def strange_state():
    """The qutrit (0, 1, -1)/sqrt(2) vector, maximally distant from polytope faces."""
    return np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def norrell_state():
    """The qutrit (-1, 2, -1)/sqrt(6) vector, maximally distant from polytope edges."""
    return np.array([-1.0, 2.0, -1.0], dtype=complex) / np.sqrt(6.0)


def maximally_coherent_state():
    """The qutrit (1, -1, 1)/sqrt(3), an alternating-sign uniform superposition."""
    return np.array([1.0, -1.0, 1.0], dtype=complex) / np.sqrt(3.0)


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def random_mixed(d, seed=None):
    """Random density matrix from the Hilbert-Schmidt measure: G G^dag / tr(G G^dag),
    G a d x d Ginibre matrix."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return ginibre_dm_batch(1, d, rng_from(seed))[0]


def _complex_normal(rng, shape):
    """a + 1j*b for two standard-normal draws a, b of `shape`, built in place:
    the same stream and the same bits, without the two extra arrays of the sum."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def haar_pure_batch(n, d, rng):
    """n Haar-random pure-state projectors, stacked (n, d, d)."""
    v = _complex_normal(rng, (n, d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return np.einsum("ni,nj->nij", v, v.conj())


def ginibre_dm_chunks(n, d, rng):
    """n Hilbert-Schmidt states G G^dag / tr(G G^dag), G d x d Ginibre, yielded
    CHUNK at a time: all real parts are drawn first, as in one full draw, then
    each chunk's imaginary parts. Run it out before `rng` draws again."""
    real = rng.standard_normal((n, d, d))
    for i in range(0, n, CHUNK):
        g = real[i:i + CHUNK].astype(complex)
        g.imag = rng.standard_normal(g.shape)
        np.einsum("nik,njk->nij", g, g.conj(), out=g)    # G G^dag in G's own buffer
        g /= np.einsum("nii->n", g).real[:, None, None]
        yield g


def ginibre_dm_batch(n, d, rng):
    """The states of ginibre_dm_chunks in one (n, d, d) stack, empty at n = 0."""
    rho = np.empty((n, d, d), dtype=complex)
    for chunk, i in zip(ginibre_dm_chunks(n, d, rng), range(0, n, CHUNK)):
        rho[i:i + CHUNK] = chunk
    return rho


# ---------------------------------------------------------------------------
# bipartite operations
# ---------------------------------------------------------------------------

def tensor(a, b):
    """Kronecker product of two operators (or density matrices); leading axes
    are batch axes."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    t = a[..., :, None, :, None] * b[..., None, :, None, :]
    return t.reshape(t.shape[:-4] + (t.shape[-4] * t.shape[-3], t.shape[-2] * t.shape[-1]))


def _check_dims(rho, dims):
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(x) for x in dims)
    if len(dims) < 2:
        raise ValueError("dims must list at least two subsystem dimensions")
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or int(np.prod(dims)) != rho.shape[-1]:
        raise ValueError(f"dims {dims} do not match matrix shape {rho.shape}")
    return rho, dims


def partial_trace(rho, dims, keep):
    """Reduced state on subsystem `keep` of a state with factor dimensions `dims`;
    leading axes of `rho` are batch axes."""
    rho, dims = _check_dims(rho, dims)
    n = len(dims)
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} subsystems")
    t = rho.reshape(rho.shape[:-2] + dims + dims)
    # row and column share a label on every subsystem but `keep`, so einsum traces them out
    col = list(range(n))
    col[keep] = n
    return np.einsum(t, [..., *range(n), *col], [..., keep, n])


def partial_transpose(rho, dims, on):
    """Transpose one tensor factor; Hermitian, trace 1, not necessarily PSD;
    leading axes of `rho` are batch axes."""
    rho, dims = _check_dims(rho, dims)
    n = len(dims)
    if not 0 <= on < n:
        raise ValueError(f"subsystem index {on} out of range for {n} subsystems")
    b = rho.ndim - 2
    t = rho.reshape(rho.shape[:b] + dims + dims)
    t = np.swapaxes(t, b + on, b + on + n)
    return t.reshape(rho.shape)
