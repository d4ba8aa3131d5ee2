import inspect
import itertools

import numpy as np
import pytest

from magiclab import channels as ch, cli, linalg, monotones as mo, phasespace as ps, stabilizer as st
from conftest import kraus_images_loop, result1_oracle, sample_channel, selective_outcomes

OMEGA = np.exp(2j * np.pi / 3)


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        ch.KrausChannel(kraus=(np.eye(3) * 0.5,))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kraus_rejects_non_finite_entries(bad):
    # nan would slip past the completeness check, whose comparison is then False
    with pytest.raises(ValueError, match="non-finite"):
        ch.KrausChannel(kraus=[[[bad, 0], [0, 1]]])


@pytest.mark.parametrize("call, match", [
    (lambda: ch.KrausChannel(kraus=np.eye(3)), r"\(k, d_out, d_in\) stack, got shape \(3, 3\)"),
    (lambda: ch.estimate_cm(np.eye(3) / 3, -1), "n_trials >= 0, got -1"),
    (lambda: ch.apply(ch.identity_channel(2), np.eye(3) / 3), "channel expects dimension 2, state has 3"),
], ids=["kraus_matrix", "estimate_cm_negative_trials", "apply_dimension"])
def test_boundary_checks_name_the_violation(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_dephasing_admitted_and_incoherent():
    dep = ch.dephasing_channel(3)
    assert ch.is_incoherent(dep)
    assert len(dep.kraus) == 3


def test_sampled_incoherent_channel_properties():
    rng = np.random.default_rng(60)
    for _ in range(50):
        lam = ch.sample_incoherent_channel(3, int(rng.integers(1, 10)), rng)
        total = sum(k.conj().T @ k for k in lam.kraus)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        assert ch.is_incoherent(lam)
        diag = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        out = ch.apply(lam, diag)
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < 1e-10


def test_sampled_incoherent_channel_deterministic():
    a = ch.sample_incoherent_channel(3, 4, seed=7)
    b = ch.sample_incoherent_channel(3, 4, seed=7)
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.array_equal(ka, kb)


def test_incoherent_kraus_stack_is_padded_and_complete():
    counts = np.arange(1, 10)
    kraus = ch._incoherent_kraus(counts, 3, np.random.default_rng(66))
    assert kraus.shape == (9, 9, 3, 3)
    for k, stack in zip(counts, kraus):
        total = np.einsum("kai,kaj->ij", stack.conj(), stack)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        assert ch.is_incoherent(ch.KrausChannel(kraus=stack[:k]))
        assert np.count_nonzero(stack[k:]) == 0


def test_haar_kraus_stack_is_padded_and_complete():
    counts = np.array([1, 4, 2, 9, 3])
    kraus = ch._haar_kraus(counts, 3, np.random.default_rng(67))
    assert kraus.shape == (5, 9, 3, 3)
    for k, stack in zip(counts, kraus):
        total = np.einsum("kai,kaj->ij", stack.conj(), stack)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        assert np.count_nonzero(stack[k:]) == 0


def test_images_match_kraus_loop():
    rng = np.random.default_rng(68)
    kraus = ch._incoherent_kraus(rng.integers(1, 10, size=7), 3, rng)
    rhos = np.stack([linalg.random_mixed(3, seed=rng) for _ in range(7)])
    got = ch._images(kraus, rhos)
    for k_stack, rho, images in zip(kraus, rhos, got):
        assert np.max(np.abs(images - np.array(kraus_images_loop(k_stack, rho)))) < 1e-15
    # one channel against a stack of states broadcasts to (state, element)
    lam = sample_channel(3, 4, rng)
    got = ch._images(lam.kraus, rhos)
    assert got.shape == (7, 4, 3, 3)
    for rho, images in zip(rhos, got):
        assert np.max(np.abs(images - np.array(kraus_images_loop(lam.kraus, rho)))) < 1e-15


@pytest.mark.parametrize("seed", [0, 1, 42, 345])
def test_incoherent_outcomes_grouped_by_count_keep_the_padded_bytes(seed):
    # result1's and selective's outcomes skip the zero Kraus blocks; every
    # byte, padding included, is that of the product over the padded stack
    n = 500
    rhos, outcomes = ch._incoherent_outcomes(n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    padded_rhos = ch._mixed_and_pure(n, 3, rng)
    kraus = ch._incoherent_kraus(rng.integers(1, 10, size=n), 3, rng)
    assert rhos.tobytes() == padded_rhos.tobytes()
    assert outcomes.tobytes() == ch._images(kraus, padded_rhos).tobytes()


@pytest.mark.parametrize("seed", [3, 505])
def test_selective_audit_matches_the_one_channel_outcomes(seed):
    # the audit's margin, max over trials of sum_i p_i C_l1(outcome_i) - C_l1(rho),
    # from each trial's channel and state redrawn and resolved one at a time
    n = 200
    rng = np.random.default_rng(seed)
    rhos = ch._mixed_and_pure(n, 3, rng)
    counts = rng.integers(1, 10, size=n)
    kraus = ch._incoherent_kraus(counts, 3, rng)
    margins = [sum(p * mo.l1_coherence(out) for p, out in
                   selective_outcomes(ch.KrausChannel(kraus[t, :counts[t]]), rhos[t]))
               - mo.l1_coherence(rhos[t]) for t in range(n)]
    assert abs(max(margins) - ch.selective_audit(n, seed).worst_margin) <= 1e-12


def test_sample_incoherent_rejects_no_kraus():
    with pytest.raises(ValueError):
        ch.sample_incoherent_channel(3, 0, seed=0)


def test_apply_identity_and_dephasing():
    rho = linalg.random_mixed(3, seed=61)
    assert np.max(np.abs(ch.apply(ch.identity_channel(3), rho) - rho)) < 1e-14
    dep = ch.apply(ch.dephasing_channel(3), rho)
    assert np.allclose(dep, np.diag(np.diag(rho)), atol=1e-14)


def test_apply_preserves_trace():
    rng = np.random.default_rng(62)
    for _ in range(20):
        rho = linalg.random_mixed(3, seed=rng)
        lam = sample_channel(3, int(rng.integers(1, 10)), rng)
        assert abs(np.trace(ch.apply(lam, rho)).real - 1) < 1e-12


def test_apply_dim_mismatch():
    with pytest.raises(ValueError):
        ch.apply(ch.identity_channel(3), linalg.maximally_mixed(2))


def test_selective_outcomes_unitary():
    rho = linalg.random_mixed(3, seed=63)
    outs = selective_outcomes(ch.unitary_channel(st.clifford_generators(3)[2]), rho)
    assert len(outs) == 1
    assert abs(outs[0][0] - 1) < 1e-12


def test_selective_outcomes_dephasing_coherent(named_states):
    outs = selective_outcomes(ch.dephasing_channel(3), named_states["coherent"])
    assert len(outs) == 3
    for p, _ in outs:
        assert abs(p - 1 / 3) < 1e-12


def test_selective_outcomes_resolve_channel():
    rng = np.random.default_rng(64)
    for _ in range(10):
        rho = linalg.random_mixed(3, seed=rng)
        lam = ch.sample_incoherent_channel(3, 5, rng)
        outs = selective_outcomes(lam, rho)
        assert abs(sum(p for p, _ in outs) - 1) < 1e-10
        resolved = sum(p * s for p, s in outs)
        assert np.max(np.abs(resolved - ch.apply(lam, rho))) < 1e-10


def test_is_incoherent_classifier():
    _, _, f, _ = st.clifford_generators(3)
    assert not ch.is_incoherent(ch.unitary_channel(f))
    assert ch.is_incoherent(ch.unitary_channel(np.diag([1.0, 1.0j])))
    perm = np.eye(3)[[2, 0, 1]].astype(complex)
    assert ch.is_incoherent(ch.unitary_channel(perm))


def test_incoherent_clifford_unitaries_membership():
    x, z, f, _ = st.clifford_generators(3)
    monos = ch.incoherent_clifford_unitaries(3)
    keys = {st._phase_key(u) for u in monos}
    assert st._phase_key(x) in keys
    assert st._phase_key(z) in keys
    assert st._phase_key(f) not in keys
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    keys2 = {st._phase_key(u) for u in ch.incoherent_clifford_unitaries(2)}
    assert st._phase_key(sx) in keys2


def test_incoherent_clifford_unitaries_counts_vs_oracle():
    # independent census: every permutation x diag(w^a, w^b) candidate that
    # conjugates X and Z into Paulis (up to phase) is an incoherent Clifford
    import itertools

    x, z, _, _ = st.clifford_generators(3)
    paulis = []
    for a in range(3):
        for b in range(3):
            paulis.append(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))

    def is_pauli_up_to_phase(m):
        for p in paulis:
            ratio = None
            ok = True
            for i in range(3):
                for j in range(3):
                    if abs(p[i, j]) > 1e-9:
                        r = m[i, j] / p[i, j]
                        if ratio is None:
                            ratio = r
                        elif abs(r - ratio) > 1e-9:
                            ok = False
                    elif abs(m[i, j]) > 1e-9:
                        ok = False
            if ok and ratio is not None and abs(abs(ratio) - 1) < 1e-9:
                return True
        return False

    count = 0
    for perm in itertools.permutations(range(3)):
        pmat = np.zeros((3, 3), dtype=complex)
        for col, row in enumerate(perm):
            pmat[row, col] = 1
        for a in range(3):
            for b in range(3):
                u = pmat @ np.diag([1, OMEGA ** a, OMEGA ** b])
                if is_pauli_up_to_phase(u @ x @ u.conj().T) and is_pauli_up_to_phase(u @ z @ u.conj().T):
                    count += 1
    assert count == len(ch.incoherent_clifford_unitaries(3)) == 54
    assert len(ch.incoherent_clifford_unitaries(2)) == 8


def test_incoherent_cliffords_closed_under_product():
    rng = np.random.default_rng(65)
    monos = ch.incoherent_clifford_unitaries(3)
    for _ in range(100):
        u = monos[rng.integers(len(monos))] @ monos[rng.integers(len(monos))]
        assert ch._incoherent(u)


def _one_entry_per_row_and_column(u):
    """Oracle: exactly one entry above INCOHERENT_ENTRY_TOL per column and per
    row (a permutation times phases), per matrix of a stack."""
    mask = np.abs(u) > ch.INCOHERENT_ENTRY_TOL
    return np.all(mask.sum(axis=-2) == 1, axis=-1) & np.all(mask.sum(axis=-1) == 1, axis=-1)


def test_incoherent_mask_is_the_monomial_rule_on_unitaries():
    # a unitary's columns are unit vectors, so each has an entry of modulus
    # >= 1/sqrt(d) above the tolerance: at most one per column is exactly one,
    # and orthogonal one-entry columns sit in distinct rows
    rng = np.random.default_rng(67)
    haar = ch._haar_kraus(np.ones(200, dtype=int), 3, rng)[:, 0]
    perms = rng.permuted(np.broadcast_to(np.arange(3), (200, 3)), axis=-1)
    monomial = np.zeros((200, 3, 3), dtype=complex)
    np.put_along_axis(monomial, perms[:, None, :], np.exp(2j * np.pi * rng.uniform(size=(200, 1, 3))), axis=1)
    stacks = [st.clifford_group(2).unitaries, st.clifford_group(3).unitaries, haar, monomial]
    assert [len(u) for u in stacks] == [24, 216, 200, 200]
    for u in stacks:
        assert np.allclose(u @ u.conj().swapaxes(-1, -2), np.eye(u.shape[-1]), atol=1e-12)
        assert np.array_equal(ch._incoherent(u), _one_entry_per_row_and_column(u))
    assert [int(ch._incoherent(u).sum()) for u in stacks] == [8, 54, 0, 200]


@pytest.mark.parametrize("d, count", [(2, 8), (3, 54)])
def test_incoherent_cliffords_permute_vertices_and_facets(d, count):
    # the symmetry that lets estimate_cm skip rho's Clifford images: each
    # monomial Clifford maps the vertex projectors and the facet operators
    # onto themselves as sets, so u rho u^dag has exactly rho's distance
    monos = ch.incoherent_clifford_unitaries(d)
    assert len(monos) == count
    for ops in (st.stabilizer_pure_states(d).projectors, st.stabilizer_facets(d)):
        images = monos[:, None] @ ops @ monos[:, None].conj().swapaxes(-1, -2)
        gaps = np.max(np.abs(images[:, :, None] - ops[None, None]), axis=(-2, -1))
        match = np.argmin(gaps, axis=2)
        assert np.max(np.min(gaps, axis=2)) <= 1e-12
        assert all(sorted(row) == list(range(len(ops))) for row in match.tolist())


def test_is_genuinely_stabilizer(qubit_vertices):
    assert ch.classify(ch.identity_channel(2), qubit_vertices).genuinely_stabilizer
    assert not ch.classify(ch.dephasing_channel(2), qubit_vertices).genuinely_stabilizer
    # classify checks dimensions: no matmul error from numpy
    with pytest.raises(ValueError, match="maps 2 -> 2, vertices have dimension 3"):
        ch.classify(ch.identity_channel(2), st.stabilizer_pure_states(3))


def test_classify_flags(qubit_vertices):
    flags = ch.classify(ch.identity_channel(2), qubit_vertices)
    assert flags.incoherent and flags.incoherent_clifford_unitary
    assert flags.stabilizer_preserving and flags.genuinely_stabilizer
    flags = ch.classify(ch.dephasing_channel(2), qubit_vertices)
    assert flags.incoherent and not flags.genuinely_stabilizer
    # genuinely stabilizer implies stabilizer preserving on the audit sample
    assert (not flags.genuinely_stabilizer) or flags.stabilizer_preserving


def test_classify_flags_non_preserving_unitary(qutrit_vertices):
    # a generic unitary moves some vertex mixture out of the polytope
    flags = ch.classify(sample_channel(3, 1, seed=5), qutrit_vertices, n_probe=20)
    assert not flags.stabilizer_preserving
    assert not flags.incoherent and not flags.genuinely_stabilizer
    with pytest.raises(ValueError):
        ch.classify(ch.identity_channel(2), qutrit_vertices)


def test_classify_flags_non_clifford_phase_gate(qutrit_vertices):
    # monomial but not Clifford; it moves the vertex F|0> out of the polytope
    u = np.diag([1.0, np.exp(0.3j), 1.0])
    flags = ch.classify(ch.unitary_channel(u), qutrit_vertices)
    assert flags.incoherent
    assert not flags.incoherent_clifford_unitary
    assert not flags.stabilizer_preserving
    assert not flags.genuinely_stabilizer
    image = u @ qutrit_vertices.projectors[2] @ u.conj().T
    assert st.polytope_distance(image, qutrit_vertices).lower > 0.1


def _monomial_lattice(d, rng):
    # every permutation times diag(1, e^{2 pi i k/36}, ...), times a random global phase; it holds
    # every monomial Clifford, whose relative phases are 4th (d = 2) or 3rd (d = 3) roots of unity
    lattice = []
    for perm in itertools.permutations(range(d)):
        for ks in itertools.product(range(36), repeat=d - 1):
            u = np.zeros((d, d), dtype=complex)
            u[list(perm), range(d)] = np.exp(2j * np.pi * np.array((0, *ks)) / 36)
            lattice.append(u)
    return np.array(lattice) * np.exp(2j * np.pi * rng.uniform(size=(len(lattice), 1, 1)))


def test_classify_clifford_flag_is_group_membership():
    # the vertex-image rule agrees with membership modulo phase in the enumerated group
    for d, n, count in ((2, 72, 8), (3, 7776, 54)):
        group = {st._phase_key(u) for u in st.clifford_group(d).unitaries}
        vertices = st.stabilizer_pure_states(d)
        lattice = _monomial_lattice(d, np.random.default_rng(d))
        assert len(lattice) == n
        flags = [ch.classify(ch.unitary_channel(u), vertices) for u in lattice]
        member = [st._phase_key(u) in group for u in lattice]
        assert [f.incoherent_clifford_unitary for f in flags] == member
        assert sum(member) == count
        assert all(f.incoherent and (f.stabilizer_preserving or not m) for f, m in zip(flags, member))


def test_classify_clifford_flag_ignores_global_phase():
    # each monomial Clifford under a global phase e^{2 pi i k/7} is still flagged
    for d in (2, 3):
        monos = ch.incoherent_clifford_unitaries(d)
        phases = np.exp(2j * np.pi * np.arange(len(monos)) / 7)
        assert all(ch.classify(ch.unitary_channel(p * u), st.stabilizer_pure_states(d))
                   .incoherent_clifford_unitary for p, u in zip(phases, monos))


AUDITS_AND_CW = dict(ch.AUDIT_SUITES, cw_contractivity=ch.cw_contractivity_audit)


@pytest.mark.parametrize("audit", sorted(AUDITS_AND_CW))
def test_audit_work_does_not_scale_with_trials(monkeypatch, audit):
    # every trial runs in the same batch calls, so call counts do not grow with n_trials
    counts = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    validate = counting("validate", linalg.validate_density_matrix)
    for module in (linalg, ps, st, mo, ch):
        monkeypatch.setattr(module, "validate_density_matrix", validate)
    monkeypatch.setattr(ch, "_images", counting("images", ch._images))
    seen = []
    for n_trials in (10, 40):
        counts.update(validate=0, images=0)
        AUDITS_AND_CW[audit](n_trials=n_trials, seed=3)
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def test_result1_tol_covers_two_certified_gaps():
    # a pair the branch and bound does not prune is solved to two certified
    # brackets, each end within stabilizer.TOL of its distance, so the
    # conservative margin of a true margin <= 0 reads at most 2 * TOL
    assert ch.RESULT1_TOL > 2 * st.TOL


def test_result1_audit_small():
    report = ch.result1_audit(n_trials=400, seed=1)
    assert report.passed
    assert report.worst_margin <= 1e-8
    assert report.details["undecided"] == 0


def test_result1_reports_its_pruning_and_sweeps(capsys):
    # the early bracket reads decide almost every pair within two sweeps
    n = 400
    details = ch.result1_audit(n_trials=n, seed=1).details
    assert details["undecided"] == 0
    assert details["pruned"] >= 0.9 * n
    assert details["sweeps_p50"] <= 2
    assert 10 <= details["sweeps_max"] <= 5000
    assert cli.main(["audit", "--suite", "result1", "--n", str(n), "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for key in ("pruned", "sweeps_p50", "sweeps_max"):
        assert f"{key}={details[key]}" in lines


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-8, -0.3])
def test_result1_branch_and_bound_matches_full_solves(monkeypatch, seed, tol):
    # a negative tol makes many pairs violations, so the count is exercised too
    monkeypatch.setattr(ch, "RESULT1_TOL", tol)
    report = ch.result1_audit(n_trials=120, seed=seed)
    worst, violations = result1_oracle(120, seed, tol)
    assert abs(report.worst_margin - worst) <= 2e-9
    assert report.details["violations"] == violations
    assert report.details["undecided"] == 0
    assert report.passed == (violations == 0)
    if tol < 0:
        assert 0 < violations < 120


# result1's proof (README, channels section), one test per step: sigma, the
# nearest diagonal state to rho, stays diagonal under an incoherent channel,
# diagonal states lie in the polytope, and the trace distance contracts.

def test_diagonal_qutrits_lie_in_the_polytope():
    # tr(F sigma) = 1 + sigma_ii for the facet F holding the basis projector
    # |i><i|: F's three other projectors are unbiased, each giving 1/3.
    # So min_F tr(F sigma) - 1 = min_i sigma_ii >= 0, within rounding.
    rng = np.random.default_rng(2024)
    diags = np.concatenate([np.eye(3), rng.dirichlet(np.ones(3), size=10_000)])
    sigmas = np.einsum("ni,ij->nij", diags, np.eye(3)).astype(complex)
    margins = np.einsum("fij,nji->nf", st.stabilizer_facets(3), sigmas).real.min(axis=1) - 1.0
    assert np.max(np.abs(margins - diags.min(axis=1))) <= 1e-15
    assert st.in_polytope_batch(sigmas, tol=1e-15).all()


def test_incoherent_kraus_stacks_keep_diagonal_states_diagonal():
    # each Kraus element maps basis states to basis states, so every
    # off-diagonal entry of the image is a sum of exact zeros
    rng = np.random.default_rng(2025)
    counts = np.repeat(np.arange(1, 28), 20)
    kraus = ch._incoherent_kraus(counts, 3, rng)
    sigmas = np.einsum("ni,ij->nij", rng.dirichlet(np.ones(3), size=len(counts)), np.eye(3)).astype(complex)
    images = ch._images(kraus, sigmas).sum(axis=1)
    assert np.all(images[:, ~np.eye(3, dtype=bool)] == 0.0)


@pytest.mark.parametrize("family", ["monomial_clifford", "dephasing", "kraus_10_to_27"])
def test_result1_margin_holds_on_channels_the_audit_never_draws(family):
    # the audit draws 1 to 9 random Kraus elements; the theorem covers every
    # incoherent channel, so the conservative margin (magic upper bound of
    # the image minus coherence lower bound of the state) stays <= tol
    rng = np.random.default_rng(2026)
    if family == "monomial_clifford":
        kraus = ch.incoherent_clifford_unitaries(3)[:, None]
    elif family == "dephasing":
        kraus = ch.dephasing_channel(3).kraus[None]
    else:
        kraus = ch._incoherent_kraus(np.repeat(np.arange(10, 28), 4), 3, rng)
    kraus = np.repeat(kraus, -(-400 // len(kraus)), axis=0)
    rhos = ch._mixed_and_pure(len(kraus), 3, rng)
    images = ch._images(kraus, rhos).sum(axis=1)
    magic, _, _, _ = st.polytope_distance_batch(images, st.stabilizer_pure_states(3).projectors)
    coh, _, _, _ = st.polytope_distance_batch(rhos, st.basis_projectors(3))
    assert np.max(magic[:, 1] - coh[:, 0]) <= 1e-8


@pytest.mark.parametrize("u", [np.eye(3), np.diag([1.0, np.exp(0.3j), 1.0]),
                               sample_channel(3, 1, seed=5).kraus[0]])
def test_classify_early_stop_matches_full_solve(qutrit_vertices, u):
    # the full-solve rule: preserving iff every probe image's upper bound <= VERTEX_TOL
    tol, n_probe = st.VERTEX_TOL, 10
    verts = qutrit_vertices.projectors
    weights = np.random.default_rng(0).dirichlet(np.ones(len(verts)), size=n_probe)
    probes = np.concatenate([verts, np.einsum("nm,mij->nij", weights, verts)])
    bounds, _, _, _ = st.polytope_distance_batch(u @ probes @ u.conj().T, verts)
    flags = ch.classify(ch.unitary_channel(u), qutrit_vertices, seed=0, n_probe=n_probe)
    assert flags.stabilizer_preserving == bool(np.all(bounds[:, 1] <= tol))


def test_facet_verdict_matches_the_solver_rule(qutrit_vertices):
    # the solver rule: preserving iff every vertex image's certified upper bound <= 1e-7
    rng = np.random.default_rng(7)
    unitaries = [np.eye(3), st.clifford_generators(3)[2], np.diag([1.0, np.exp(0.3j), 1.0])]
    chans = ([ch.dephasing_channel(3)] + [ch.unitary_channel(u) for u in unitaries]
             + [ch.sample_incoherent_channel(3, int(rng.integers(1, 10)), rng) for _ in range(40)]
             + [sample_channel(3, int(rng.integers(1, 10)), rng) for _ in range(40)]
             + [ch.unitary_channel(u) for u in st.clifford_group(3).unitaries[::7]])
    verts = qutrit_vertices.projectors
    images = np.concatenate([ch.apply(chan, v)[None] for chan in chans for v in verts])
    bounds, _, _, _ = st.polytope_distance_batch(images, verts)
    by_channel = bounds[:, 1].reshape(len(chans), len(verts))
    expected = np.all(by_channel <= 1e-7, axis=1)
    got = [ch.classify(chan, qutrit_vertices).stabilizer_preserving for chan in chans]
    assert got == expected.tolist()
    assert 0 < sum(got) < len(chans)


@pytest.mark.parametrize("audit", sorted(ch.AUDIT_SUITES))
@pytest.mark.parametrize("n_trials", [0, -1])
def test_audits_reject_no_trials(audit, n_trials):
    with pytest.raises(ValueError, match="at least one trial"):
        ch.AUDIT_SUITES[audit](n_trials=n_trials, seed=0)


@pytest.mark.parametrize("audit", [*ch.AUDIT_SUITES.values(), ch.cw_contractivity_audit],
                         ids=[*ch.AUDIT_SUITES, "cw_contractivity"])
def test_audits_take_their_trials_and_seed_from_the_caller(audit):
    # the trial counts and seeds are stated once, by ExperimentConfig and the audit command
    params = inspect.signature(audit).parameters
    assert all(params[name].default is inspect.Parameter.empty for name in ("n_trials", "seed"))


def test_lp_audit_small():
    report = ch.lp_monotonicity_audit(n_trials=150, seed=1)
    assert report.passed
    assert report.worst_margin <= 1e-9


def test_selective_audit_small():
    report = ch.selective_audit(n_trials=300, seed=1)
    assert report.passed


def test_gso_audit_small():
    report = ch.gso_audit(n_trials=1500, seed=1)
    assert report.passed
    assert report.details["non_identity_fixers"] == 0
    assert report.details["diag_both_bases_kernel_dim"] == 1


def test_summed_images_match_images():
    # gso's one contraction against the per-element matmuls of `_images`
    rng = np.random.default_rng(77)
    kraus = ch._haar_kraus(rng.integers(1, 5, size=50), 2, rng)
    verts = st.stabilizer_pure_states(2).projectors
    got = ch._summed_images(kraus, verts)
    assert got.shape == (50, len(verts), 2, 2)
    assert np.max(np.abs(got - ch._images(kraus[:, None], verts).sum(axis=2))) <= 1e-15


def test_lp_plain_partial_trace_fails_for_p2():
    # the decomposed step C(Tr X) <= C(X) is false for p > 1: a mixed diagonal
    # ancilla scales C_lp down, and tracing it back out restores C_lp(rho)
    rho = linalg.dm_from_pure(linalg.strange_state())
    sigma = np.diag([0.5, 0.5]).astype(complex)
    joint = linalg.tensor(rho, sigma)
    c_joint = mo.lp_coherence(joint, 2)
    c_traced = mo.lp_coherence(linalg.partial_trace(joint, (3, 2), 0), 2)
    assert c_traced > c_joint + 0.2  # the violation is macroscopic
    # while the l1 version is safe
    assert mo.l1_coherence(linalg.partial_trace(joint, (3, 2), 0)) <= mo.l1_coherence(joint) + 1e-12
