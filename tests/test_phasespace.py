import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import linalg, phasespace as ps
from conftest import random_qutrit_batch

OMEGA = np.exp(2j * np.pi / 3)


def test_displacement_identity():
    assert np.allclose(ps.displacement(3, 0, 0), np.eye(3), atol=1e-14)


def test_displacement_clock():
    assert np.allclose(ps.displacement(3, 1, 0), np.diag([1, OMEGA, OMEGA ** 2]), atol=1e-14)


def test_displacement_mixed_term():
    # D(1,1) = w^{-2} Z X, checked by direct matrix multiplication
    z = np.diag([1, OMEGA, OMEGA ** 2])
    x = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        x[(j + 1) % 3, j] = 1
    expect = OMEGA ** (-2) * z @ x
    got = ps.displacement(3, 1, 1)
    assert np.allclose(got, expect, atol=1e-13)
    assert np.allclose(got @ got.conj().T, np.eye(3), atol=1e-13)


def test_displacement_rejects_even():
    with pytest.raises(ValueError):
        ps.displacement(2, 1, 0)


@pytest.mark.parametrize("d, match", [(4, "odd dimension, got d=4"), (9, "prime dimension, got d=9")])
def test_phase_point_ops_need_odd_prime_dimension(d, match):
    with pytest.raises(ValueError, match=match):
        ps.phase_point_ops(d)


def phase_point_ops_oracle(d):
    """A(p,q) = D(p,q) A_0 D(p,q)^dag one operator at a time, with A_0
    summed one displacement at a time and divided by d."""
    a0 = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            a0 += ps.displacement(d, p, q)
    a0 /= d
    ops = np.empty((d, d, d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            dp = ps.displacement(d, p, q)
            ops[p, q] = dp @ a0 @ dp.conj().T
    return ops


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_phase_point_ops_match_the_loop_oracle_bit_for_bit(d):
    assert ps.phase_point_ops(d).tobytes() == phase_point_ops_oracle(d).tobytes()


@pytest.mark.parametrize("d", [3, 5, 7])
def test_phase_point_ops_traces_and_sum(d):
    ops = ps.phase_point_ops(d)
    for p in range(d):
        for q in range(d):
            assert abs(np.trace(ops[p, q]) - 1) < 1e-12
            assert np.max(np.abs(ops[p, q] - ops[p, q].conj().T)) < 1e-12
    total = ops.reshape(d * d, d, d).sum(axis=0)
    assert np.allclose(total, d * np.eye(d), atol=1e-12)


def test_wigner_maximally_mixed(named_states):
    w = ps.wigner(named_states["mixed"])
    assert np.allclose(w, np.full((3, 3), 1 / 9), atol=1e-14)


def test_wigner_strange_grid(named_states):
    w = ps.wigner(named_states["strange"])
    assert abs(w[0, 0] + 1 / 3) < 1e-12
    rest = np.delete(w.reshape(-1), 0)
    assert np.allclose(rest, 1 / 6, atol=1e-12)


def test_wigner_basis_state_one_line():
    w = ps.wigner(linalg.dm_from_pure(linalg.basis_ket(3, 0)))
    assert np.allclose(w[:, 0], 1 / 3, atol=1e-12)
    assert np.allclose(w[:, 1:], 0, atol=1e-12)


def test_wigner_rejects_even_dim():
    with pytest.raises(ValueError):
        ps.wigner(linalg.maximally_mixed(2))


def test_closed_form_maximally_mixed(named_states):
    assert np.allclose(ps.qutrit_closed_form(named_states["mixed"]), 1 / 9, atol=1e-14)


def test_closed_form_norrell_cell(named_states):
    # hand evaluation from the Norrell projector: l1 = Re rho_12 = -1/3,
    # rho_33 = 1/6, so the (1,3) cell is (2(-1/3) + 1/6)/3 = -1/6
    rho = named_states["norrell"]
    assert abs(rho[0, 1].real + 1 / 3) < 1e-14
    assert abs(rho[2, 2].real - 1 / 6) < 1e-14
    w = ps.qutrit_closed_form(rho)
    assert abs(w[0, 2] + 1 / 6) < 1e-12


def test_closed_form_rejects_other_dims():
    with pytest.raises(ValueError):
        ps.qutrit_closed_form(linalg.maximally_mixed(2))


def test_closed_form_equivalence_random():
    rhos = random_qutrit_batch(1000, seed=20)
    for rho in rhos:
        diff = np.max(np.abs(ps.wigner(rho) - ps.qutrit_closed_form(rho)))
        assert diff < 1e-12


def test_wigner_normalization_and_marginals():
    rhos = random_qutrit_batch(1000, seed=21)
    grids = ps.wigner_batch(rhos, 3)
    assert np.max(np.abs(grids.sum(axis=(1, 2)) - 1)) < 1e-10
    for w in grids[:200]:
        for sums in ps.striation_marginals(w):
            assert sums.min() >= -1e-10
            assert abs(sums.sum() - 1) < 1e-10


def test_one_state_grids_match_the_stack_bit_for_bit():
    # einsum rounds a one-state stack its own way, so wigner_batch evaluates
    # it as two rows: a state's grid is the same alone as inside any stack
    rhos = linalg.ginibre_dm_batch(300, 3, np.random.default_rng(5))
    full = ps.wigner_batch(rhos, 3)
    for size in (1, 2, 3, 64):
        parts = [ps.wigner_batch(rhos[i:i + size], 3) for i in range(0, len(rhos), size)]
        assert np.array_equal(np.concatenate(parts), full)
    assert all(np.array_equal(ps.wigner(rho), grid) for rho, grid in zip(rhos[:20], full))


@settings(max_examples=40, deadline=None)
@given(d=hst.sampled_from([3, 5]), data=hst.data())
def test_wigner_grid_sums_to_one_with_nonnegative_line_sums(d, data):
    entries = hst.lists(hst.floats(min_value=-1.0, max_value=1.0), min_size=d * d, max_size=d * d)
    g = np.reshape(data.draw(entries), (d, d)) + 1j * np.reshape(data.draw(entries), (d, d))
    gram = g @ g.conj().T
    rho = gram / np.trace(gram).real if np.trace(gram).real > 1e-6 else np.eye(d) / d
    w = ps.wigner(rho)
    assert abs(w.sum() - 1) < 1e-12
    assert ps.striation_marginals(w).min() >= -1e-12


def test_line_sums_vertical_is_diagonal():
    rng = np.random.default_rng(22)
    rhos = np.stack([linalg.random_mixed(3, seed=rng) for _ in range(20)])
    for rho in rhos:
        sums = ps.striation_marginals(ps.wigner(rho))[0]  # row 0 is the vertical striation
        assert np.allclose(sums, np.diag(rho).real, atol=1e-12)
    stacked = ps.striation_marginals(ps.wigner_batch(rhos, 3).reshape(4, 5, 3, 3))[..., 0, :]
    assert stacked.shape == (4, 5, 3)
    assert np.allclose(stacked.reshape(20, 3), np.diagonal(rhos, axis1=1, axis2=2).real,
                       atol=1e-12)


def test_line_sums_named_states(named_states):
    grids = np.stack([ps.wigner(named_states["mixed"]), ps.wigner(named_states["strange"])])
    for k in range(len(ps.striations(3))):
        assert np.allclose(ps.striation_marginals(grids[0])[k], 1 / 3, atol=1e-12)
        assert np.allclose(ps.striation_marginals(grids)[0, k], 1 / 3, atol=1e-12)
    sums = ps.striation_marginals(grids[1])[0]
    assert np.allclose(sums, [0.0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(ps.striation_marginals(grids)[1, 0], [0.0, 0.5, 0.5], atol=1e-12)


def test_line_sums_rejects_mismatched_striation():
    # no grid shape other than (..., d, d) with prime d has striations
    with pytest.raises(ValueError):
        ps.striation_marginals(np.full(9, 1 / 9))
    with pytest.raises(ValueError):
        ps.striation_marginals(np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError):
        ps.striation_marginals(np.full((4, 4), 1 / 16))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_striation_marginals_match_loop_reference(d):
    # the index gather against a plain Python sum over each line's points
    rng = np.random.default_rng(24 + d)
    grids = np.stack([ps.wigner(linalg.random_mixed(d, seed=rng)) for _ in range(10)])
    ref = np.array([[[sum(w[p, q] for p, q in line) for line in s.lines]
                     for s in ps.striations(d)] for w in grids])
    marg = ps.striation_marginals(grids.reshape(2, 5, d, d))
    assert marg.shape == (2, 5, d + 1, d)
    assert np.array_equal(marg.reshape(10, d + 1, d), ref)
    assert np.array_equal(ps.striation_marginals(grids[3]), ref[3])


def test_striations_structure():
    stris = ps.striations(3)
    assert len(stris) == 4
    for s in stris:
        assert len(s.lines) == 3
        assert all(len(line) == 3 for line in s.lines)
        covered = {pt for line in s.lines for pt in line}
        assert covered == {(p, q) for p in range(3) for q in range(3)}


def test_striations_pairwise_line_intersections():
    # lines from distinct striations meet in exactly one point
    stris = ps.striations(3)
    for i in range(len(stris)):
        for j in range(i + 1, len(stris)):
            for la in stris[i].lines:
                for lb in stris[j].lines:
                    assert len(set(la) & set(lb)) == 1


def test_striations_reject_nonprime():
    for d in (0, 1, 4):
        with pytest.raises(ValueError, match="prime"):
            ps.striations(d)


def test_wigner_covariance_under_shift():
    # X rho X^dag shifts the grid cyclically along q
    x = ps.shift_matrix(3)
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = linalg.random_mixed(3, seed=rng)
        w = ps.wigner(rho)
        w_shifted = ps.wigner(x @ rho @ x.conj().T)
        assert np.allclose(w_shifted, np.roll(w, 1, axis=1), atol=1e-12)


def test_line_operators_are_stabilizer_projectors(qutrit_vertices):
    # summing A(p,q)/3 along any line gives a pure stabilizer projector
    ops = ps.phase_point_ops(3)
    for s in ps.striations(3):
        for line in s.lines:
            proj = sum(ops[p, q] for p, q in line) / 3
            assert np.allclose(proj @ proj, proj, atol=1e-10)
            assert abs(np.trace(proj) - 1) < 1e-10
            dists = [np.max(np.abs(proj - v)) for v in qutrit_vertices.projectors]
            assert min(dists) < 1e-8
