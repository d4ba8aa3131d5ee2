import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import channels, linalg, phasespace as ps, stabilizer as st
from conftest import (project_simplex, pure_trace_distance, random_pure, random_qutrit_batch,
                      slsqp_polytope_oracle, trace_distance)

OMEGA = np.exp(2j * np.pi / 3)


def test_generators_basic():
    x, z, f, s = st.clifford_generators(3)
    assert np.allclose(f @ f.conj().T, np.eye(3), atol=1e-12)
    assert np.allclose(f @ linalg.basis_ket(3, 0), np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    assert np.allclose(s, np.diag([1, 1, OMEGA]), atol=1e-12)


def test_generator_conjugation_oracle():
    # F X F^dag is proportional to Z (direct multiply, phase divided out)
    x, z, f, _ = st.clifford_generators(3)
    m = f @ x @ f.conj().T
    phase = m[0, 0] / z[0, 0]
    assert abs(abs(phase) - 1) < 1e-12
    assert np.max(np.abs(m - phase * z)) < 1e-10


def test_generators_reject_nonprime():
    for d in (0, 1, 4):
        with pytest.raises(ValueError, match="prime"):
            st.clifford_generators(d)


def test_vertex_counts(qutrit_vertices, qubit_vertices):
    assert len(qutrit_vertices) == 12
    assert len(qubit_vertices) == 6


def test_vertices_contain_basis_projectors(qutrit_vertices):
    for i in range(3):
        proj = linalg.dm_from_pure(linalg.basis_ket(3, i))
        dists = [trace_distance(proj, v) for v in qutrit_vertices.projectors]
        assert min(dists) < 1e-10


def test_vertices_pairwise_distinct(qutrit_vertices):
    for a, b in itertools.combinations(qutrit_vertices.projectors, 2):
        assert trace_distance(a, b) > 1e-8


def test_orbit_closure(qutrit_vertices, qubit_vertices):
    for vset, d in ((qutrit_vertices, 3), (qubit_vertices, 2)):
        gens = st.clifford_generators(d)
        for ket in vset.kets:
            for g in gens:
                img = g @ ket
                img /= np.linalg.norm(img)
                dmin = min(pure_trace_distance(img, k) for k in vset.kets)
                assert dmin < 1e-8


def test_vertices_match_mub_construction(qutrit_vertices):
    # independent enumeration: computational basis plus the three bases
    # with amplitudes w^{r n^2 + k n}/sqrt(3) (eigenbases of X, XZ, XZ^2)
    expected = [linalg.basis_ket(3, k) for k in range(3)]
    for r in range(3):
        for k in range(3):
            vec = np.array([OMEGA ** (r * n * n + k * n) for n in range(3)]) / np.sqrt(3)
            expected.append(vec)
    assert len(expected) == len(qutrit_vertices)
    for vec in expected:
        dmin = min(pure_trace_distance(vec, ket) for ket in qutrit_vertices.kets)
        assert dmin < 1e-10


def test_vertices_have_zero_sum_negativity(qutrit_vertices):
    for proj in qutrit_vertices.projectors:
        msn = np.abs(ps.wigner(proj)).sum() - 1
        assert msn < 1e-10


def test_vertex_words_pinned(qubit_vertices, qutrit_vertices):
    # vertex indices are part of the interface: pin the order and provenance
    assert qubit_vertices.words == ("|0>", "X|0>", "F|0>", "FX|0>", "SF|0>", "SFX|0>")
    assert qutrit_vertices.words == ("|0>", "X|0>", "F|0>", "XX|0>", "FX|0>", "SF|0>", "FXX|0>",
                                     "SFX|0>", "XSF|0>", "FSF|0>", "FSFX|0>", "SSFX|0>")


def test_vertex_words_reproduce_kets(qubit_vertices, qutrit_vertices):
    for vset in (qubit_vertices, qutrit_vertices):
        d = vset.kets.shape[1]
        gens = dict(zip(st.GENERATOR_NAMES, st.clifford_generators(d)))
        for word, ket in zip(vset.words, vset.kets):
            img = linalg.basis_ket(d, 0)
            for name in reversed(word[:-3]):
                img = gens[name] @ img
            assert pure_trace_distance(img, ket) < 1e-12
            lead = ket[np.argmax(np.abs(ket) > 1e-9)]
            assert abs(lead.imag) < 1e-15 and lead.real > 0


def test_clifford_group_enumeration():
    for d, size in ((2, 24), (3, 216)):
        group = st.clifford_group(d)
        assert st.clifford_group(d) is group
        assert len(group.unitaries) == len(group.words) == size
        with pytest.raises(ValueError):
            group.unitaries[0, 0, 0] = 0.0
        # BFS order: distinct elements modulo phase, words never shorter than their predecessors'
        assert len({st._phase_key(u) for u in group.unitaries}) == size
        assert [len(w) for w in group.words] == sorted(len(w) for w in group.words)
        gens = dict(zip(st.GENERATOR_NAMES, st.clifford_generators(d)))
        for u, word in zip(group.unitaries, group.words):
            assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
            prod = np.eye(d, dtype=complex)
            for name in reversed(word):
                prod = gens[name] @ prod
            assert st._phase_key(prod) == st._phase_key(u)
    with pytest.raises(ValueError):
        st.clifford_group(5)


def test_vertex_set_cached_read_only():
    vset = st.stabilizer_pure_states(3)
    assert st.stabilizer_pure_states(3) is vset
    with pytest.raises(ValueError):
        vset.projectors[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        vset.kets[0, 0] = 0.0


def _traceless_basis(d):
    """Generalized Gell-Mann matrices, orthonormal under tr(A B): (d^2 - 1, d, d)."""
    basis = []
    for j, k in itertools.combinations(range(d), 2):
        for entry in (1.0, 1.0j):
            g = np.zeros((d, d), dtype=complex)
            g[j, k], g[k, j] = entry, np.conj(entry)
            basis.append(g / np.sqrt(2.0))
    for n in range(1, d):
        basis.append(np.diag(np.r_[np.ones(n), -n, np.zeros(d - n - 1)]) / np.sqrt(n * (n + 1)))
    return np.array(basis)


@pytest.mark.parametrize("d, n_facets", [(2, 8), (3, 81)])
def test_facets_are_the_qhull_hyperplanes(d, n_facets):
    # rho = I/d + sum_k x_k G_k, so tr(F rho) >= 1 reads -f.x + (1 - tr F / d) <= 0
    # with f_k = tr(F G_k): Qhull's form a.x + b <= 0, once scaled to a unit normal
    from scipy.spatial import ConvexHull

    basis = _traceless_basis(d)
    verts = st.stabilizer_pure_states(d).projectors
    qhull = ConvexHull(np.einsum("kij,nji->nk", basis, verts).real).equations
    facets = st.stabilizer_facets(d)
    assert facets.shape == (n_facets, d, d) and qhull.shape[0] == n_facets
    f = np.einsum("kij,fji->fk", basis, facets).real
    offset = 1.0 - np.einsum("fii->f", facets).real / d
    ours = np.column_stack([-f, offset]) / np.linalg.norm(f, axis=1)[:, None]
    # a one-to-one match: every facet is a Qhull hyperplane and none is left over
    gap = np.max(np.abs(ours[:, None] - qhull[None]), axis=2)
    assert np.max(np.min(gap, axis=1)) <= 1e-9
    assert sorted(np.argmin(gap, axis=1)) == list(range(n_facets))


def test_wigner_facets_are_stabilizer_facets():
    facets = st.stabilizer_facets(3)
    for a in ps.phase_point_ops(3).reshape(9, 3, 3):
        assert np.min(np.max(np.abs(facets - (a + np.eye(3))), axis=(1, 2))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_every_vertex_meets_every_facet(d):
    facets = st.stabilizer_facets(d)
    values = np.einsum("fij,nji->nf", facets, st.stabilizer_pure_states(d).projectors).real
    assert abs(values.min() - 1.0) <= 1e-12
    # every vertex lies on some facet, and every facet holds some vertex
    assert np.max(np.abs(values.min(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(values.min(axis=0) - 1.0)) <= 1e-12


def test_facets_cached_read_only():
    facets = st.stabilizer_facets(3)
    assert st.stabilizer_facets(3) is facets
    with pytest.raises(ValueError):
        facets[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        st.stabilizer_facets(5)


def test_enumeration_rejects_unsupported():
    with pytest.raises(ValueError):
        st.stabilizer_pure_states(5)


def _vertex_gram(verts):
    """G_ab = tr(v_a v_b) of a vertex stack."""
    return np.einsum("aij,bji->ab", verts, verts).real


@pytest.mark.parametrize("d", [2, 3])
def test_stabilizer_gram_curvature_on_the_simplex(d):
    # the weight step is 1/L_T with L_T = lambda_max(P G P), P = I - J/m;
    # for the stabilizer sets that is 1, against lambda_max(G) = d + 1
    gram = _vertex_gram(st.stabilizer_pure_states(d).projectors)
    centre = np.eye(len(gram)) - 1.0 / len(gram)
    assert abs(np.linalg.eigvalsh(gram)[-1] - (d + 1)) < 1e-12
    assert abs(np.linalg.eigvalsh(centre @ gram @ centre)[-1] - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_basis_gram_is_identity(d):
    assert np.max(np.abs(_vertex_gram(st.basis_projectors(d)) - np.eye(d))) < 1e-12


def test_polytope_distance_vertex(qutrit_vertices):
    res = st.polytope_distance(qutrit_vertices.projectors[4], qutrit_vertices)
    assert res.distance <= 1e-9
    assert res.certified
    assert res.weights[4] > 1 - 1e-6


def _batch_distance(rho, verts):
    return st.polytope_distance_batch(rho[None], verts)


@pytest.mark.parametrize("entry, verts, match", [
    (st.polytope_distance, st.stabilizer_pure_states(3), "dimension mismatch: state 2, vertices 3"),
    (st.polytope_distance, st.stabilizer_pure_states(3).projectors, "dimension mismatch: state 2, vertices 3"),
    (st.polytope_distance, [], r"\(m >= 1, d, d\) stack, got shape \(0,\)"),
    (st.polytope_distance, np.eye(2), r"\(m >= 1, d, d\) stack, got shape \(2, 2\)"),
    (_batch_distance, [], r"\(m >= 1, d, d\) stack, got shape \(0,\)"),
    (_batch_distance, np.eye(2), r"\(m >= 1, d, d\) stack, got shape \(2, 2\)"),
    (_batch_distance, st.stabilizer_pure_states(3).projectors, "dimension mismatch: state 2, vertices 3"),
    (st.polytope_distance_batch, st.basis_projectors(2), r"states must be an \(n, d, d\) stack, got shape \(2, 2\)"),
], ids=["vertex_set", "vertex_list", "empty", "one_matrix", "batch_empty", "batch_one_matrix",
        "batch_mismatch", "batch_unstacked"])
def test_polytope_distance_rejects_dimension_mismatch(entry, verts, match):
    # a state or vertex stack of the wrong shape is named, not left to fail
    # inside numpy; the check sits in solve_decided, the one solve entry
    with pytest.raises(ValueError, match=match):
        entry(np.eye(2) / 2, verts)


def test_an_empty_state_stack_solves_to_empty_results():
    bounds, weights, iters, certified = st.polytope_distance_batch(np.zeros((0, 3, 3)), st.basis_projectors(3))
    assert bounds.shape == (0, 2) and weights.shape == (0, 3) and iters.shape == certified.shape == (0,)


@pytest.mark.parametrize("counts", [(2, 5), (5, 2)])
def test_a_decide_rule_needs_equal_state_counts(counts):
    # the rule's mask covers the states of every problem, so their counts must agree
    # (2 then 5 failed inside numpy; 5 then 2 stopped the second problem by the first's mask)
    verts = st.basis_projectors(3)
    problems = [(linalg.haar_pure_batch(n, 3, np.random.default_rng(n)), verts) for n in counts]
    never = lambda *bounds: np.zeros(len(bounds[0]), dtype=bool)  # noqa: E731
    with pytest.raises(ValueError, match=rf"same number of states in every problem, got \[{counts[0]}, {counts[1]}\]"):
        st.solve_decided(problems, never)
    assert [len(res[0]) for res in st.solve_decided(problems)] == list(counts)  # fine without a rule


@pytest.mark.parametrize("verts, top", [(st.stabilizer_pure_states(d).projectors, 1.0) for d in (2, 3)]
                         + [(st.basis_projectors(d), 1.0) for d in (2, 3, 4, 5)]
                         + [(st.basis_projectors(3)[:1], 0.0)],
                         ids=["stabilizer_2", "stabilizer_3", *(f"basis_{d}" for d in (2, 3, 4, 5)), "one_vertex"])
def test_gram_curvature_on_the_simplex_is_one(verts, top):
    # the solver's FISTA step is 1, which needs lambda_max(P G P) = 1 for the
    # vertex Gram matrix G and P = I - J/m (0 for one vertex, where the
    # projection fixes w = 1 at any step)
    m = len(verts)
    gram = np.einsum("aij,bji->ab", verts, verts).real
    centre = np.eye(m) - 1.0 / m
    assert abs(np.linalg.eigvalsh(centre @ gram @ centre)[-1] - top) <= 1e-12


def test_polytope_distance_maximally_mixed(qutrit_vertices):
    res = st.polytope_distance(linalg.maximally_mixed(3), qutrit_vertices)
    assert res.distance <= 1e-9
    assert res.certified


def test_polytope_distance_strange_regression(qutrit_vertices, named_states):
    # pinned by two independent solvers during development: exactly 1/2
    res = st.polytope_distance(named_states["strange"], qutrit_vertices)
    assert res.distance > 0.2
    assert abs(res.distance - 0.5) < 1e-6
    oracle = slsqp_polytope_oracle(named_states["strange"], qutrit_vertices.projectors)
    assert abs(res.distance - oracle) < 5e-7


def test_polytope_distance_norrell_regression(qutrit_vertices, named_states):
    res = st.polytope_distance(named_states["norrell"], qutrit_vertices)
    assert abs(res.distance - 1 / 3) < 1e-6


def test_polytope_distance_random_vs_slsqp(qutrit_vertices):
    rhos = random_qutrit_batch(6, seed=30)
    bounds, _, _, certified = st.polytope_distance_batch(rhos, qutrit_vertices.projectors)
    assert certified.all()
    assert np.all(bounds[:, 1] - bounds[:, 0] <= 1e-9)
    for rho, (lower, d) in zip(rhos, bounds):
        oracle = slsqp_polytope_oracle(rho, qutrit_vertices.projectors)
        assert d <= oracle + 1e-8   # ours is never worse (both are upper bounds)
        assert abs(d - oracle) < 5e-7
        # the oracle's value is attained at feasible weights: no valid lower bound exceeds it
        assert lower <= oracle + 1e-12


@pytest.mark.parametrize("d, kind", [(3, "stabilizer"), (3, "basis"), (2, "stabilizer"), (2, "basis")])
def test_stabilizer_solve_sweep_budget(d, kind):
    # sweep-count regression guard for the certificate: 1,000 states all
    # certify within 300 sweeps (the slowest take 140, 20, 110 and 0; 170,
    # 140, 110 and 50 without the plain solves' polish)
    rng = np.random.default_rng(2024)
    rhos = np.concatenate([linalg.ginibre_dm_batch(500, d, rng), linalg.haar_pure_batch(500, d, rng)])
    verts = st.stabilizer_pure_states(d).projectors if kind == "stabilizer" else st.basis_projectors(d)
    _, _, iters, certified = st.polytope_distance_batch(rhos, verts)
    assert certified.all()
    assert iters.max() <= 300


def _accept_no_polish(rhos, verts, vdual, w, bounds):
    """A stand-in for `stabilizer._polish` that accepts no polished weights."""
    return np.zeros(len(rhos), dtype=bool), w[:0], bounds[:0]


_POLISH = st._polish


def _no_start_polish(rhos, verts, vdual, w, bounds):
    """`stabilizer._polish` with the basis set's polish before sweep 1 (the
    one call whose brackets are all [0, inf]) accepting nothing."""
    at_start = np.isinf(bounds[:, 1]).all()
    return (_accept_no_polish if at_start else _POLISH)(rhos, verts, vdual, w, bounds)


@pytest.mark.parametrize("kind", ["stabilizer", "basis"])
def test_early_brackets_change_only_when_a_state_stops(monkeypatch, qutrit_vertices, kind):
    # a solve with a decide rule also reads its brackets at sweeps 1 and 2;
    # with a rule that never fires, only certification can stop a state there
    # (the maximally mixed state, at the centre of both polytopes, does), and
    # every other state must iterate bit for bit as in the plain solve, once
    # the plain solve's polish is off (a rule-driven solve is never polished)
    monkeypatch.setattr(st, "_polish", _accept_no_polish)
    verts = qutrit_vertices.projectors if kind == "stabilizer" else st.basis_projectors(3)
    rng = np.random.default_rng(909)
    rhos = np.concatenate([linalg.maximally_mixed(3)[None], linalg.ginibre_dm_batch(100, 3, rng),
                           linalg.haar_pure_batch(100, 3, rng)])
    never = lambda bounds: np.zeros(len(bounds), dtype=bool)  # noqa: E731
    early, w_early, it_early, ok_early = st.solve_decided([(rhos, verts)], never)[0]
    plain, w_plain, it_plain, ok_plain = st.solve_decided([(rhos, verts)])[0]
    assert ok_early.all() and ok_plain.all()
    assert it_early[0] == 1 and it_plain[0] == 10
    assert np.all(it_early <= it_plain)
    same = it_early == it_plain
    assert same.sum() >= len(rhos) - 5
    assert np.array_equal(w_early[same], w_plain[same])
    assert np.array_equal(early[same, 1], plain[same, 1])
    assert np.all(early[same, 0] >= plain[same, 0])
    # the plain schedule: brackets only every 10 sweeps and at MAX_ITER
    _, _, iters, _ = st.polytope_distance_batch(rhos, verts)
    assert np.array_equal(iters, it_plain)
    assert np.all(iters % 10 == 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(st, "MAX_ITER", 25)
        _, _, iters, certified = st.polytope_distance_batch(rhos, verts)
    assert np.all((iters % 10 == 0) | (iters == 25)) and not certified.all()


@pytest.mark.parametrize("d, kind", [(3, "stabilizer"), (3, "basis"), (2, "stabilizer"), (2, "basis")])
def test_polish_stops_no_later_and_agrees_with_admm(monkeypatch, d, kind):
    # against the same solve with no polish: each state stops at the same
    # read or an earlier one, is certified wherever it was, keeps its weights
    # on the simplex, and its certified bracket is closed to tol and overlaps
    # the other within tol
    rng = np.random.default_rng(1717)
    rhos = np.concatenate([linalg.haar_pure_batch(60, d, rng), linalg.ginibre_dm_batch(60, d, rng)])
    verts = st.stabilizer_pure_states(d).projectors if kind == "stabilizer" else st.basis_projectors(d)
    bounds, w, iters, certified = st.polytope_distance_batch(rhos, verts)
    with monkeypatch.context() as patch:
        patch.setattr(st, "_polish", _accept_no_polish)
        bounds0, _, iters0, certified0 = st.polytope_distance_batch(rhos, verts)
    tol = st.TOL
    assert np.all(iters <= iters0)
    assert np.all(certified[certified0])
    assert w.min() >= 0.0 and np.abs(w.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.all(bounds[certified, 1] - bounds[certified, 0] <= tol)
    both = certified & certified0
    assert np.all(bounds[both, 0] <= bounds0[both, 1] + tol)
    assert np.all(bounds0[both, 0] <= bounds[both, 1] + tol)
    if d == 3:  # most qutrits certify before sweep 1 on the basis set, at the first read on the other
        assert np.median(iters) == {"basis": 0, "stabilizer": 10}[kind] < np.median(iters0)


@pytest.mark.parametrize("d", [3, 4])  # at d = 2 it accepts every state
def test_a_rejected_start_polish_leaves_admm_untouched(monkeypatch, d):
    # the basis set's polish before sweep 1 (the only read whose brackets are
    # all [0, inf]) stops the states it accepts at 0 sweeps; every state it
    # rejects keeps its bounds, weights and sweep count bit for bit against
    # the same solve where that polish accepts nothing
    rng = np.random.default_rng(1818)
    rhos = np.concatenate([linalg.haar_pure_batch(150, d, rng), linalg.ginibre_dm_batch(150, d, rng)])
    verts = st.basis_projectors(d)
    bounds, w, iters, certified = st.polytope_distance_batch(rhos, verts)
    monkeypatch.setattr(st, "_polish", _no_start_polish)
    bounds0, w0, iters0, certified0 = st.polytope_distance_batch(rhos, verts)
    rejected = iters > 0
    assert 0 < rejected.sum() < len(rhos) and np.all(iters0 > 0)
    assert certified[~rejected].all()
    assert bounds[rejected].tobytes() == bounds0[rejected].tobytes()
    assert w[rejected].tobytes() == w0[rejected].tobytes()
    assert np.array_equal(iters[rejected], iters0[rejected])
    assert np.array_equal(certified[rejected], certified0[rejected])


@pytest.mark.parametrize("re6", [0.12685446644224663, 0.5])
def test_the_polish_at_a_read_stays_silent(monkeypatch, re6):
    # the 55 monomial-Clifford images of one mixed qutrit, a draw of
    # test_monotones_invariant_under_monomial_cliffords: solved on the basis
    # set by ADMM from the uniform weights, their polish at a read met clipped
    # weights summing to 0 (re6 = 0.1268...) and an exactly singular Newton
    # system (re6 = 0.5), which warned in a divide and in det
    g = np.zeros((3, 3), dtype=complex)
    g[2, 0], g[1, 0] = re6, 1e-14j
    gram = g @ g.conj().T
    rho = (1 - 0.5) * gram / np.trace(gram).real + 0.5 * np.eye(3) / 3
    us = channels.incoherent_clifford_unitaries(3)
    stack = np.concatenate([rho[None], us @ rho @ us.conj().transpose(0, 2, 1)])
    monkeypatch.setattr(st, "_polish", _no_start_polish)
    bounds, _, iters, certified = st.polytope_distance_batch(stack, st.basis_projectors(3))
    assert certified.all() and iters.min() >= 10
    assert bounds[:, 0].max() <= bounds[:, 1].min() + 1e-12


def test_polish_certifies_the_basis_set_tail():
    # states that ADMM alone leaves uncertified at MAX_ITER = 5000 (gaps
    # 1.3e-8 at d = 3 and 2.4e-9 to 1.2e-7 at d = 4): the polish certifies
    # them at the first read. The gate sets are drawn whole for their
    # streams, and only these rows are solved.
    for d, haar, ginibre, rows in ((3, 10**4, 10**4, [16121]), (4, 1500, 1500, [1110, 1347, 1533])):
        rng = np.random.default_rng(123)
        rhos = np.concatenate([linalg.haar_pure_batch(haar, d, rng), linalg.ginibre_dm_batch(ginibre, d, rng)])
        assert st.polytope_distance_batch(rhos[rows], st.basis_projectors(d))[3].all()


def _solver_digest(results):
    """SHA-256 of the (bounds, weights, iterations, certified) of each solve."""
    h = hashlib.sha256()
    for bounds, weights, iters, certified in results:
        for arr in (bounds, weights, iters.astype(np.int64), certified):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _solver_digests(monkeypatch):
    """The digests pinned by `test_solver_output_bits_are_pinned`."""
    out = {}
    for d, kind in itertools.product((2, 3), ("stabilizer", "basis")):
        rng = np.random.default_rng(1717)
        rhos = np.concatenate([linalg.haar_pure_batch(60, d, rng), linalg.ginibre_dm_batch(60, d, rng)])
        verts = st.stabilizer_pure_states(d).projectors if kind == "stabilizer" else st.basis_projectors(d)
        out[f"stack_{kind}_{d}"] = _solver_digest([st.polytope_distance_batch(rhos, verts)])
    verts = st.stabilizer_pure_states(3).projectors
    out["one_state"] = _solver_digest([st.polytope_distance_batch(rho[None], verts)
                                       for rho in random_qutrit_batch(5, seed=1718)])
    solves, solve = [], st.solve_decided

    def recorded(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(st, "solve_decided", recorded)
    channels.result1_audit(300, seed=1719)
    out["result1"] = _solver_digest(solves[0])
    return out


SOLVER_DIGESTS = {
    "stack_stabilizer_2": "b77eaa995a99867a1fbc5f6c11889637dc493d6540243f0e2ee203bef168ddc4",
    "stack_basis_2": "45de35c5552c650b60aac96ace22945e12546677e9bc9d17c9d4d87172f5d186",
    "stack_stabilizer_3": "0f0f07dd47ba21610371aed2dbb130c15a8bad21544fd0225aae6e1c523de63f",
    "stack_basis_3": "afd22d1a431c55656e209203c082c1cdce0838537751f4fb5a1455fc9cf3cd1c",
    "one_state": "94353273eaf5ddfe097ace870a3d267c45c6da72900e76b29126c5ac2e55dff7",
    "result1": "a8db1346e1fccc4048f3014ca3c73deefb289bf90ccf411518f36211ecd26ae3",
}


def test_solver_output_bits_are_pinned(monkeypatch):
    # the solver's bracket, weights, sweep counts and certificates are pinned
    # bit for bit: a rewrite of its inner loop or of the plain solves' polish
    # must reach the same iterates (a different BLAS or LAPACK may round the
    # gemms or the Newton solves differently and move these)
    assert _solver_digests(monkeypatch) == SOLVER_DIGESTS


@pytest.mark.parametrize("m", [2, 3, 4, 12])
def test_simplex_projection_matches_the_last_index_oracle(m):
    # the shift max_k f_k is the f_k at the last k with u_k > f_k, bit for bit
    # on rows without exact ties
    rng = np.random.default_rng(600 + m)
    for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
        v = scale * rng.standard_normal((10**4, m))
        assert st._project_simplex_batch(v).tobytes() == project_simplex(v).tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 12])
def test_simplex_projection_on_exact_ties(m):
    # entries k/6 + 1/m make u_{k+1} = f_k exactly on some rows, where
    # rounding can lift f_{k+1} one ulp above f_k: there the max form differs
    # from the oracle, on up to 5 % of these rows and by at most 2.2e-16
    rng = np.random.default_rng(700 + m)
    v = rng.integers(-6, 7, size=(10**4, m)) / 6 + 1 / m
    x, oracle = st._project_simplex_batch(v), project_simplex(v)
    diff = np.abs(x - oracle).max(axis=1)
    assert diff.max() <= 4.5e-16
    assert np.mean(diff > 0) <= 0.05
    assert x.min() >= 0.0
    # a sum of m rounded entries: the oracle's rows miss 1 by up to 1.4e-15 at m = 12
    assert np.abs(x.sum(axis=1) - 1.0).max() <= m * np.finfo(float).eps


def _tie_prone_states(d):
    """The vertices of dimension d and, for qutrits, the midpoints of vertex
    pairs and the strange/white, Norrell/white and strange/coherent lines on
    21-point grids: states whose projections can meet exact ties."""
    verts = st.stabilizer_pure_states(d).projectors
    if d == 2:
        return verts
    mids = np.array([(a + b) / 2 for a, b in itertools.combinations(verts, 2)])
    strange, norrell, coherent = (linalg.dm_from_pure(k) for k in (
        linalg.strange_state(), linalg.norrell_state(), linalg.maximally_coherent_state()))
    p = np.linspace(0.0, 1.0, 21)[:, None, None]
    white = linalg.maximally_mixed(3)
    lines = [(1 - p) * a + p * b for a, b in ((strange, white), (norrell, white), (strange, coherent))]
    return np.concatenate([verts, mids, *lines])


@pytest.mark.parametrize("d, kind", [(3, "stabilizer"), (3, "basis"), (2, "stabilizer"), (2, "basis")])
def test_solver_bits_match_with_the_oracle_projection(monkeypatch, d, kind):
    # the max form may differ from the oracle by an ulp at exact ties; on
    # these tie-prone states the solver still reaches the same bits, as a
    # stack and one state at a time
    rhos = _tie_prone_states(d)
    verts = st.stabilizer_pure_states(d).projectors if kind == "stabilizer" else st.basis_projectors(d)

    def digests():
        solves = [st.polytope_distance_batch(rhos, verts)]
        solves += [st.polytope_distance_batch(rho[None], verts) for rho in rhos]
        return [_solver_digest([solve]) for solve in solves]

    ours = digests()
    monkeypatch.setattr(st, "_project_simplex_batch", project_simplex)
    assert digests() == ours


def test_incoherent_bracket_vs_slsqp():
    rhos = random_qutrit_batch(6, seed=38)
    basis = st.basis_projectors(3)
    bounds, _, _, certified = st.polytope_distance_batch(rhos, basis)
    assert certified.all()
    assert np.all(bounds[:, 1] - bounds[:, 0] <= 1e-9)
    for rho, (lower, upper) in zip(rhos, bounds):
        oracle = slsqp_polytope_oracle(rho, basis)
        assert lower <= oracle + 1e-12
        assert abs(upper - oracle) < 5e-7


def test_qubit_incoherent_distance_bracket():
    # the qubit distance to the diagonal states is exactly |rho_01|
    rng = np.random.default_rng(39)
    rhos = np.stack([linalg.random_mixed(2, seed=rng) for _ in range(40)]
                    + [linalg.dm_from_pure(random_pure(2, rng)) for _ in range(40)])
    bounds, _, _, certified = st.polytope_distance_batch(rhos, st.basis_projectors(2))
    exact = np.abs(rhos[:, 0, 1])
    assert certified.all()
    assert np.all(bounds[:, 1] - bounds[:, 0] <= 1e-9)
    assert np.all(bounds[:, 0] <= exact + 1e-12)
    assert np.all(exact <= bounds[:, 1] + 1e-12)


def test_qubit_incoherent_distance_is_the_off_diagonal_modulus():
    # the closed form: equal to |rho_01| of the validated matrix, bit for bit
    rng = np.random.default_rng(41)
    qubits = ([linalg.random_mixed(2, seed=rng) for _ in range(40)]
              + [linalg.dm_from_pure(random_pure(2, rng)) for _ in range(40)])
    for q in qubits:
        assert st.incoherent_distance(q) == abs(linalg.validate_density_matrix(q)[0, 1])


_entries = hst.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(re=hst.lists(_entries, min_size=9, max_size=9),
       im=hst.lists(_entries, min_size=9, max_size=9),
       mix=hst.floats(min_value=0.0, max_value=1.0),
       vertex_kind=hst.sampled_from(["stabilizer", "basis"]),
       tol=hst.sampled_from([1e-9, 1e-6, 1e-3]))
def test_certificate_property(re, im, mix, vertex_kind, tol):
    g = np.array(re).reshape(3, 3) + 1j * np.array(im).reshape(3, 3)
    gram = g @ g.conj().T
    if np.trace(gram).real < 1e-6:
        gram = np.eye(3)
    verts = (st.stabilizer_pure_states(3).projectors if vertex_kind == "stabilizer"
             else st.basis_projectors(3))
    # pull part of the way towards the maximally mixed state to reach the interior
    rho = (1 - mix) * gram / np.trace(gram).real + mix * np.eye(3) / 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(st, "TOL", tol)
        bounds, _, _, certified = st.polytope_distance_batch(rho[None], verts)
    lower, upper = bounds[0]
    assert 0.0 <= lower <= upper + 1e-12   # float slack: the two bounds are separate sums
    if certified[0]:
        assert upper - lower <= tol


def test_minimizer_validity(qutrit_vertices):
    rhos = random_qutrit_batch(50, seed=31)
    bounds, weights, _, _ = st.polytope_distance_batch(rhos, qutrit_vertices.projectors)
    dists = bounds[:, 1]
    assert np.all(weights >= -1e-12)
    assert np.max(np.abs(weights.sum(axis=1) - 1)) < 1e-10
    redone = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(
        rhos - np.einsum("nm,mij->nij", weights, qutrit_vertices.projectors))), axis=-1)
    assert np.max(np.abs(redone - dists)) < 1e-9


def test_polytope_distance_convexity(qutrit_vertices):
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = linalg.random_mixed(3, seed=rng)
        b = linalg.random_mixed(3, seed=rng)
        lam = rng.uniform()
        mix = lam * a + (1 - lam) * b
        da = st.polytope_distance(a, qutrit_vertices).distance
        db = st.polytope_distance(b, qutrit_vertices).distance
        dm = st.polytope_distance(mix, qutrit_vertices).distance
        assert dm <= lam * da + (1 - lam) * db + 1e-8


def test_in_polytope(qutrit_vertices, named_states):
    for v in qutrit_vertices.projectors:
        assert st.in_polytope(v) is True
    assert st.in_polytope(named_states["strange"]) is False
    rng = np.random.default_rng(33)
    for _ in range(10):
        diag = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        assert st.in_polytope(diag) is True


def _facet_min(rho):
    return np.einsum("fij,ji->f", st.stabilizer_facets(rho.shape[0]), rho).real.min()


def test_in_polytope_tol_is_a_facet_slack(qutrit_vertices):
    # in_polytope_batch's tol shifts the facet threshold: exterior states with
    # facet minimum m are members exactly when 1 - tol <= m
    exterior = [rho for rho in random_qutrit_batch(12, seed=37) if _facet_min(rho) < 1.0 - 1e-6]
    assert len(exterior) >= 6
    for rho in exterior:
        slack = 1.0 - _facet_min(rho)
        assert st.in_polytope_batch(rho, slack + 1e-9)
        assert not st.in_polytope_batch(rho, slack - 1e-9)
        # in_polytope answers with the default slack, 1e-7, below every slack here
        assert st.in_polytope(rho) is False
        # a facet slack s puts rho at trace distance >= s / sqrt(5)
        assert st.polytope_distance(rho, qutrit_vertices).lower >= slack / np.sqrt(5) - 1e-8
    with pytest.raises(ValueError, match=r"d in \{2, 3\}, got 4"):
        st.in_polytope(np.eye(4) / 4)
    with pytest.raises(TypeError):
        st.in_polytope(rho, qutrit_vertices)


def _lp_member(rho, verts):
    """Linear-programming feasibility: do w >= 0, sum w = 1, Vw = rho exist?"""
    from scipy.optimize import linprog

    m = len(verts)
    cols = np.stack([np.concatenate([v.real.reshape(-1), v.imag.reshape(-1)]) for v in verts], axis=1)
    target = np.concatenate([rho.real.reshape(-1), rho.imag.reshape(-1)])
    res = linprog(np.zeros(m), A_eq=np.vstack([cols, np.ones((1, m))]),
                  b_eq=np.concatenate([target, [1.0]]), bounds=[(0, None)] * m, method="highs")
    return res.status == 0


def test_membership_agrees_with_lp_oracle(qutrit_vertices):
    verts = qutrit_vertices.projectors
    m = len(verts)
    rng = np.random.default_rng(34)
    for _ in range(20):
        wts = rng.dirichlet(np.ones(m))
        inside = np.einsum("m,mij->ij", wts, verts)
        assert _lp_member(inside, verts)
        assert st.in_polytope(inside) is True
        # a member is at distance 0, so no lower bound may certify it outside
        assert st.polytope_distance(inside, qutrit_vertices).lower <= 1e-12
        assert _facet_min(inside) >= 1.0 - 1e-12
    strange = linalg.dm_from_pure(linalg.strange_state())
    assert not _lp_member(strange, verts)
    assert abs(_facet_min(strange)) <= 1e-12  # the Wigner facet at the origin: 3 W(0, 0) + 1 = 0
    assert st.in_polytope(strange) is False
    # and the dual bound alone proves the LP's infeasibility verdict
    assert st.polytope_distance(strange, qutrit_vertices).lower > 0.5 - 1e-9
    # the sweep's strange/white line leaves the polytope through the Wigner
    # facet at p = 3/4
    for p, member in ((0.75 - 1e-3, False), (0.75 + 1e-3, True)):
        rho = (1 - p) * strange + p * linalg.maximally_mixed(3)
        assert _lp_member(rho, verts) is member
        assert st.in_polytope(rho) is member
    # seeded Ginibre and Haar states, and their mixtures with white noise,
    # which cross the boundary
    for d in (2, 3):
        vset = st.stabilizer_pure_states(d)
        rhos = np.concatenate([linalg.ginibre_dm_batch(30, d, rng), linalg.haar_pure_batch(30, d, rng)])
        t = rng.uniform(size=(len(rhos), 1, 1))
        rhos = np.concatenate([rhos, (1 - t) * rhos + t * np.eye(d) / d])
        verdicts = [st.in_polytope(rho) for rho in rhos]
        assert verdicts == [_lp_member(rho, vset.projectors) for rho in rhos]
        assert 10 < sum(verdicts) < len(rhos) - 10


def test_incoherent_distance_diagonal_zero():
    rng = np.random.default_rng(35)
    for _ in range(10):
        diag = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        assert st.incoherent_distance(diag) <= 1e-9


def test_single_vertex_distance():
    # one vertex leaves no sum-zero direction (L_T = 0); the weight is fixed at 1
    res = st.polytope_distance(np.eye(1), st.basis_projectors(1))
    assert res.distance == 0.0
    assert res.certified
    assert res.weights.tolist() == [1.0]


def test_incoherent_distance_coherent_pinned(named_states):
    # dense grid over the 2-simplex (the three diagonal weights)
    rho = named_states["coherent"]
    grid = np.linspace(0, 1, 1001)
    best = np.inf
    for s1 in grid[::10]:
        for s2 in grid[::10]:
            if s1 + s2 > 1:
                continue
            diag = np.diag([s1, s2, 1 - s1 - s2])
            best = min(best, 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - diag))))
    d = st.incoherent_distance(rho)
    assert d <= best + 1e-9
    assert abs(d - 2 / 3) < 1e-6  # development-pinned value
    # moving toward the maximally mixed state strictly reduces the distance
    for t in (0.2, 0.5, 0.9):
        mix = (1 - t) * rho + t * linalg.maximally_mixed(3)
        assert st.incoherent_distance(mix) < d - 1e-6


def test_incoherent_dominates_polytope_distance(qutrit_vertices):
    rhos = random_qutrit_batch(1000, seed=36)
    d_stab, _, _, _ = st.polytope_distance_batch(rhos, qutrit_vertices.projectors)
    d_inc, _, _, _ = st.polytope_distance_batch(rhos, st.basis_projectors(3))
    assert np.all(d_inc[:, 1] >= d_stab[:, 1] - 1e-9)
