import numpy as np
import pytest

from magiclab import channels, linalg, monotones as mo
from conftest import (ginibre_dm_batch_oracle, haar_pure_batch_oracle, is_density_matrix,
                      random_pure, sample_channel, trace_distance)


def test_dm_from_pure_basis():
    rho = linalg.dm_from_pure(linalg.basis_ket(3, 0))
    assert np.allclose(rho, np.diag([1, 0, 0]), atol=1e-14)


def test_dm_from_pure_strange_entries():
    rho = linalg.dm_from_pure(linalg.strange_state())
    assert abs(rho[1, 1] - 0.5) < 1e-14
    assert abs(rho[2, 2] - 0.5) < 1e-14
    assert abs(rho[1, 2] + 0.5) < 1e-14
    assert abs(rho[0, 0]) < 1e-14 and abs(rho[0, 1]) < 1e-14


def test_maximally_coherent_state_is_the_alternating_qutrit():
    # the literal keeps the bits of the (-1)^i / sqrt(d) form at d = 3
    signs = np.array([(-1.0) ** i for i in range(3)])
    assert np.array_equal(linalg.maximally_coherent_state(), signs.astype(complex) / np.sqrt(3))
    with pytest.raises(TypeError):
        linalg.maximally_coherent_state(3)


def test_dm_from_pure_coherent_entries():
    psi = linalg.maximally_coherent_state()
    rho = linalg.dm_from_pure(psi)
    assert np.allclose(np.abs(rho), np.full((3, 3), 1 / 3), atol=1e-14)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-15)


def test_dm_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        linalg.dm_from_pure(np.array([0, 1, -1], dtype=complex))


def test_validators_reject_non_finite():
    assert is_density_matrix(linalg.maximally_mixed(3))
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        rho = linalg.maximally_mixed(3)
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.validate_density_matrix(rho)
        assert not is_density_matrix(rho)
        psi = linalg.strange_state()
        psi[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.validate_pure_state(psi)


@pytest.mark.parametrize("call, match", [
    (lambda: linalg.validate_density_matrix(np.ones((2, 3)) / 2), "must be square"),
    (lambda: linalg.validate_density_matrix(np.zeros((0, 0))), r"empty, got shape \(0, 0\)"),
    (lambda: mo.l1_coherence(np.zeros((0, 0))), r"empty, got shape \(0, 0\)"),
    (lambda: linalg.validate_density_matrix([[0.5, 0.1], [0.2, 0.5]]), "not Hermitian"),
    (lambda: linalg.validate_density_matrix(np.eye(2)), "trace is not 1"),
    (lambda: linalg.validate_density_matrix(np.diag([1.5, -0.5])), "not positive semidefinite"),
    (lambda: linalg.validate_pure_state([1.0]), "length >= 2"),
    (lambda: linalg.basis_ket(3, 3), "index 3 out of range for dimension 3"),
    (lambda: linalg.partial_trace(np.eye(3) / 3, (3,), 0), "at least two subsystem dimensions"),
    (lambda: linalg.partial_transpose(np.eye(6) / 6, (3, 2), 2), "subsystem index 2 out of range"),
], ids=["non_square", "empty", "empty_l1", "non_hermitian", "trace", "non_psd", "short_vector",
        "basis_index", "one_dim", "transpose_index"])
def test_boundary_checks_name_the_violation(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_random_pure_deterministic():
    a = random_pure(3, seed=123)
    b = random_pure(3, seed=123)
    assert np.array_equal(a, b)


def test_random_pure_normalized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert abs(np.linalg.norm(random_pure(3, rng)) - 1) < 1e-12


def test_random_pure_rejects_small_dim():
    with pytest.raises(ValueError):
        random_pure(1, seed=0)


def test_random_pure_haar_moment():
    # mean of |psi><psi| over Haar is I/3; tolerance 2/sqrt(n) per entry,
    # cross-checked against the empirical standard error
    n = 10_000
    rng = np.random.default_rng(7)
    acc = np.zeros((3, 3), dtype=complex)
    sq = np.zeros((3, 3))
    for _ in range(n):
        dm = linalg.dm_from_pure(random_pure(3, rng))
        acc += dm
        sq += np.abs(dm) ** 2
    mean = acc / n
    dev = np.max(np.abs(mean - np.eye(3) / 3))
    assert dev <= 2 / np.sqrt(n)
    var = sq / n - np.abs(mean) ** 2
    stderr = np.sqrt(var.max() / n)
    assert 2 / np.sqrt(n) > 3 * stderr  # the bound is well above sampling noise


def test_random_mixed_full_rank_valid():
    rho = linalg.random_mixed(3, seed=6)
    linalg.validate_density_matrix(rho)
    assert np.array_equal(rho, linalg.random_mixed(3, seed=6))
    with pytest.raises(ValueError, match="dimension"):
        linalg.random_mixed(0, seed=6)


def test_tensor_trace_and_mixed():
    rho = linalg.random_mixed(3, seed=1)
    prod = linalg.tensor(rho, linalg.dm_from_pure(linalg.basis_ket(2, 0)))
    assert abs(np.trace(prod) - 1) < 1e-12
    mm = linalg.tensor(linalg.maximally_mixed(3), linalg.maximally_mixed(2))
    assert np.allclose(mm, linalg.maximally_mixed(6), atol=1e-14)


def test_tensor_batches_match_kron():
    rng = np.random.default_rng(5)
    a = np.stack([linalg.random_mixed(3, seed=rng) for _ in range(4)])
    b = np.stack([linalg.random_mixed(2, seed=rng) for _ in range(4)])
    got = linalg.tensor(a, b)
    assert got.shape == (4, 6, 6)
    for x, y, z in zip(a, b, got):
        assert np.array_equal(z, np.kron(x, y))
    # a single factor broadcasts against a stack
    assert np.array_equal(linalg.tensor(a, b[0])[2], np.kron(a[2], b[0]))


def test_batch_samplers_give_density_matrices():
    rng = np.random.default_rng(6)
    for rhos, rank in ((linalg.ginibre_dm_batch(20, 3, rng), 3), (linalg.haar_pure_batch(20, 4, rng), 1)):
        for rho in rhos:
            linalg.validate_density_matrix(rho)
            assert np.sum(np.linalg.eigvalsh(rho) > 1e-12) == rank


@pytest.mark.parametrize("n", [0, 1, 2 * linalg.CHUNK + 1])
# the ids keep the d-rank form of the square cases from when the rank was a parameter
@pytest.mark.parametrize("d", [6, 3], ids=["6-6", "3-3"])
def test_ginibre_dm_batch_matches_the_unchunked_oracle_bit_for_bit(n, d):
    # same states to the bit over full chunks and a one-state remainder, and
    # the generator left where the oracle leaves it; n = 0 is an empty stack
    rng, oracle_rng = np.random.default_rng(n + d), np.random.default_rng(n + d)
    got = linalg.ginibre_dm_batch(n, d, rng)
    want = ginibre_dm_batch_oracle(n, d, oracle_rng)
    assert got.shape == want.shape == (n, d, d)
    assert np.array_equal(got.view(float), want.view(float))
    next_draw = oracle_rng.standard_normal()
    assert rng.standard_normal() == next_draw
    # the chunk kernel the batch collects: at most CHUNK rows each, the
    # same bits once joined, and the same next draw
    rng = np.random.default_rng(n + d)
    chunks = list(linalg.ginibre_dm_chunks(n, d, rng))
    assert all(len(chunk) <= linalg.CHUNK for chunk in chunks)
    assert len(chunks) == -(-n // linalg.CHUNK)
    joined = np.concatenate([np.empty((0, d, d), complex), *chunks])
    assert np.array_equal(joined.view(float), want.view(float))
    assert rng.standard_normal() == next_draw


@pytest.mark.parametrize("n", [1, 2 * linalg.CHUNK + 1])
@pytest.mark.parametrize("d", [2, 3, 6])
def test_haar_pure_batch_matches_the_oracle_bit_for_bit(n, d):
    rng, oracle_rng = np.random.default_rng(n + d), np.random.default_rng(n + d)
    got, want = linalg.haar_pure_batch(n, d, rng), haar_pure_batch_oracle(n, d, oracle_rng)
    assert np.array_equal(got.view(float), want.view(float))
    assert rng.standard_normal() == oracle_rng.standard_normal()


def test_tensor_partial_trace_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = linalg.random_mixed(3, seed=rng)
        b = linalg.random_mixed(2, seed=rng)
        back = linalg.partial_trace(linalg.tensor(a, b), (3, 2), 0)
        assert np.max(np.abs(back - a)) < 1e-12


def bell_3x2():
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)  # |0>|0> + |1>|1>, A-major index 2*i + j
    return np.outer(vec, vec.conj())


def test_partial_trace_bell_oracle():
    rho = bell_3x2()
    reduced = linalg.partial_trace(rho, (3, 2), 0)
    # direct 6x6 index contraction
    expect = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            for b in range(2):
                expect[i, j] += rho[2 * i + b, 2 * j + b]
    assert np.allclose(reduced, expect, atol=1e-14)
    assert np.allclose(reduced, np.diag([0.5, 0.5, 0.0]), atol=1e-14)
    assert abs(np.trace(reduced) - 1) < 1e-12


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        linalg.partial_trace(bell_3x2(), (4, 2), 0)
    with pytest.raises(ValueError):
        linalg.partial_trace(bell_3x2(), (3, 2), 5)


@pytest.mark.parametrize("dims", [(3, 2), (2, 3, 2)])
def test_partial_ops_accept_batch_axes(dims):
    rng = np.random.default_rng(5)
    big = int(np.prod(dims))
    stack = np.stack([linalg.random_mixed(big, seed=rng) for _ in range(6)]).reshape(2, 3, big, big)
    for k in range(len(dims)):
        traced = linalg.partial_trace(stack, dims, k)
        flipped = linalg.partial_transpose(stack, dims, k)
        assert traced.shape == (2, 3, dims[k], dims[k])
        assert flipped.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(traced[idx], linalg.partial_trace(stack[idx], dims, k))
            assert np.array_equal(flipped[idx], linalg.partial_transpose(stack[idx], dims, k))


def test_partial_transpose_product_psd():
    prod = linalg.tensor(linalg.random_mixed(3, seed=3), linalg.random_mixed(2, seed=4))
    pt = linalg.partial_transpose(prod, (3, 2), 1)
    assert np.linalg.eigvalsh(pt)[0] >= -1e-12


def test_partial_transpose_bell_eigenvalues():
    pt = linalg.partial_transpose(bell_3x2(), (3, 2), 1)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert abs(eigs[0] + 0.5) < 1e-12
    assert np.sum(eigs < -1e-12) == 1
    assert abs(np.trace(pt) - 1) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_involution():
    rho = bell_3x2()
    back = linalg.partial_transpose(linalg.partial_transpose(rho, (3, 2), 1), (3, 2), 1)
    assert np.array_equal(back, rho)


def test_trace_distance_basics():
    rho = linalg.random_mixed(3, seed=8)
    assert trace_distance(rho, rho) < 1e-14
    a = linalg.dm_from_pure(linalg.basis_ket(3, 0))
    b = linalg.dm_from_pure(linalg.basis_ket(3, 1))
    assert abs(trace_distance(a, b) - 1) < 1e-12
    # eigenvalues of |0><0| - I/3 are {2/3, -1/3, -1/3}
    assert abs(trace_distance(a, linalg.maximally_mixed(3)) - 2 / 3) < 1e-12


def test_trace_distance_symmetry_triangle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b, c = (linalg.random_mixed(3, seed=rng) for _ in range(3))
        dab = trace_distance(a, b)
        assert abs(dab - trace_distance(b, a)) < 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
        assert -1e-15 <= dab <= 1 + 1e-12


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError):
        trace_distance(linalg.maximally_mixed(2), linalg.maximally_mixed(3))


def test_trace_distance_contractive_under_channels():
    rng = np.random.default_rng(10)
    for _ in range(100):
        rho = linalg.random_mixed(3, seed=rng)
        sigma = linalg.random_mixed(3, seed=rng)
        lam = sample_channel(3, int(rng.integers(1, 10)), rng)
        before = trace_distance(rho, sigma)
        after = trace_distance(channels.apply(lam, rho), channels.apply(lam, sigma))
        assert after <= before + 1e-10


def test_operation_outputs_are_valid_density_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = linalg.random_mixed(3, seed=rng)
        linalg.validate_density_matrix(rho)
        psi = random_pure(6, rng)
        joint = linalg.dm_from_pure(psi)
        linalg.validate_density_matrix(joint)
        linalg.validate_density_matrix(linalg.partial_trace(joint, (3, 2), 0))
        linalg.validate_density_matrix(linalg.tensor(rho, linalg.maximally_mixed(2)))
