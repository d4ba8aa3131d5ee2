import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import channels, cli, linalg, monotones as mo, phasespace as ps, stabilizer as st
from conftest import (cw_grid_oracle, cw_lp_oracle, negativity_batch_oracle, random_pure,
                      random_qutrit_batch, write_state)


def test_sum_negativity_named(named_states):
    assert abs(mo.sum_negativity(named_states["strange"]) - 2 / 3) < 1e-10
    assert abs(mo.sum_negativity(named_states["norrell"]) - 2 / 3) < 1e-10
    assert abs(mo.sum_negativity(named_states["mixed"])) < 1e-12
    assert abs(mo.sum_negativity(named_states["coherent"]) - 4 / 9) < 1e-10


def test_sum_negativity_rejects_even_dim():
    with pytest.raises(ValueError):
        mo.sum_negativity(linalg.maximally_mixed(2))


def test_sum_negativity_zero_on_polytope(qutrit_vertices):
    rng = np.random.default_rng(40)
    for v in qutrit_vertices.projectors:
        assert mo.sum_negativity(v) < 1e-10
    for _ in range(1000):
        wts = rng.dirichlet(np.ones(12))
        rho = np.einsum("m,mij->ij", wts, qutrit_vertices.projectors)
        assert mo.sum_negativity(rho) < 1e-10


def test_sum_negativity_convexity():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = linalg.dm_from_pure(random_pure(3, rng))
        b = linalg.random_mixed(3, seed=rng)
        lam = rng.uniform()
        mix = mo.sum_negativity(lam * a + (1 - lam) * b)
        assert mix <= lam * mo.sum_negativity(a) + (1 - lam) * mo.sum_negativity(b) + 1e-9


def test_mana_values(named_states):
    assert abs(mo.mana(named_states["mixed"])) < 1e-12
    assert abs(mo.mana(named_states["strange"]) - np.log(5 / 3)) < 1e-10
    assert abs(mo.mana(named_states["strange"], base=2) - np.log2(5 / 3)) < 1e-10


def test_scalar_negativity_is_exactly_zero_on_the_maximally_mixed_qutrit(tmp_path, capsys):
    # the grid sums to 1 - 1.1e-16 here; the sweep and scatter CSVs keep that
    # unclamped value, every scalar path clamps it at 0
    mixed = linalg.maximally_mixed(3)
    assert mo.sum_negativity_grid(ps.wigner(mixed)) < 0.0
    assert mo.sum_negativity(mixed) == 0.0
    assert mo.mana(mixed) == 0.0 and mo.mana(mixed, base=2) == 0.0
    values = {r.name: r.value for r in mo.all_monotones(mixed)}
    assert values["sum_negativity"] == values["mana"] == 0.0
    path = tmp_path / "mixed.txt"
    write_state(path, mixed)
    assert cli.main(["wigner", "--state", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# sum_negativity=0 mana=0"


@pytest.mark.parametrize("base", [1, 1.0, 0.5, 0.0, -2.0, np.inf, -np.inf, np.nan])
def test_mana_rejects_bases_without_a_logarithm(named_states, base):
    # a base below 1 would make mana, the logarithm of a 1-norm >= 1, negative
    with pytest.raises(ValueError, match="mana base"):
        mo.mana(named_states["strange"], base=base)


@pytest.mark.parametrize("base", ["1", "0.5", "-2", "0", "nan", "inf"])
def test_cli_wigner_rejects_mana_base_without_a_logarithm(tmp_path, capsys, base):
    # in-process, so the error path costs no interpreter start
    path = tmp_path / "mixed.txt"
    write_state(path, linalg.maximally_mixed(3))
    assert cli.main(["wigner", "--state", str(path), f"--mana-base={base}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: mana base")


def test_mana_preserves_ordering():
    rhos = random_qutrit_batch(40, seed=42)
    msn = [mo.sum_negativity(r) for r in rhos]
    man = [mo.mana(r) for r in rhos]
    assert np.array_equal(np.argsort(msn), np.argsort(man))


def test_l1_coherence_values(named_states):
    assert abs(mo.l1_coherence(named_states["coherent"]) - 2) < 1e-12
    assert abs(mo.l1_coherence(named_states["strange"]) - 1) < 1e-12
    assert mo.l1_coherence(np.diag([0.2, 0.5, 0.3]).astype(complex)) < 1e-14


def test_l1_coherence_qutrit_bound():
    rhos = random_qutrit_batch(2000, seed=43)
    vals = [mo.l1_coherence(r) for r in rhos]
    assert max(vals) <= 2 + 1e-10


def test_lp_coherence_matches_l1_at_p1():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = linalg.random_mixed(3, seed=rng)
        assert abs(mo.lp_coherence(rho, 1) - mo.l1_coherence(rho)) < 1e-12


def test_lp_coherence_tensor_scaling():
    # C_lp(rho x sigma) = (sum_k q_k^p)^{1/p} C_lp(rho) for diagonal sigma
    rng = np.random.default_rng(45)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(10):
            rho = linalg.random_mixed(3, seed=rng)
            q = rng.dirichlet(np.ones(3))
            sigma = np.diag(q).astype(complex)
            lhs = mo.lp_coherence(linalg.tensor(rho, sigma), p)
            rhs = np.sum(q ** p) ** (1 / p) * mo.lp_coherence(rho, p)
            assert abs(lhs - rhs) < 1e-10


def test_lp_coherence_strange_p2(named_states):
    assert abs(mo.lp_coherence(named_states["strange"], 2) - 1 / np.sqrt(2)) < 1e-12


def test_lp_coherence_rejects_small_p():
    with pytest.raises(ValueError):
        mo.lp_coherence(linalg.maximally_mixed(3), 0.5)


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_lp_coherence_rejects_non_finite_p(p):
    # 0 ** 0.0 is 1, so p = inf read 1 on every state, diagonal ones included
    with pytest.raises(ValueError, match="finite p"):
        mo.lp_coherence(np.diag([0.2, 0.5, 0.3]).astype(complex), p)


def test_cw_zero_on_diagonal():
    rng = np.random.default_rng(46)
    for _ in range(100):
        diag = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        assert mo.cw_coherence(diag) < 1e-7


def test_cw_coherent_pinned(named_states):
    # derived by hand from the striation marginals of the maximally coherent
    # state (piecewise-linear minimum at lambda = 1), and matched by the grid
    val = mo.cw_coherence(named_states["coherent"])
    assert abs(val - 5 / 9) < 1e-9
    assert abs(cw_grid_oracle(named_states["coherent"]) - 5 / 9) < 1e-5


def test_cw_optimizer_matches_grid_oracle():
    rhos = random_qutrit_batch(20, seed=48)
    for rho in rhos:
        opt = mo.cw_coherence(rho)
        assert abs(opt - cw_grid_oracle(rho)) < 1e-4


@pytest.mark.parametrize("d", [3, 5, 7])
def test_cw_closed_form_matches_lp_oracle(d):
    rng = np.random.default_rng(54 + d)
    for i in range(20):
        if i % 2:
            rho = linalg.random_mixed(d, seed=rng)
        else:
            rho = linalg.dm_from_pure(random_pure(d, rng))
        assert abs(mo.cw_coherence(rho) - cw_lp_oracle(rho)) <= 1e-12


def test_cw_rises_along_a_diagonal_phase_orbit():
    # no random stream: the uniform superposition and the reversible
    # incoherent phase gate diag(1, e^{i pi/3}, 1) of the demos/05 orbit.
    # l1 coherence is 2 at both ends, yet C_w rises from 1/3 to 5/9, so C_w
    # is no monotone under incoherent operations.
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    u = np.diag([1.0, np.exp(1j * np.pi / 3), 1.0])
    before = linalg.dm_from_pure(psi)
    after = linalg.dm_from_pure(u @ psi)
    values = []
    for rho in (before, after):
        value = mo.cw_coherence(rho)
        assert abs(value - cw_lp_oracle(rho)) <= 1e-12
        assert abs(mo.l1_coherence(rho) - 2.0) <= 1e-12
        values.append(value)
    assert values[1] - values[0] > 0.2
    assert abs(values[0] - 1 / 3) <= 1e-12 and abs(values[1] - 5 / 9) <= 1e-12


def test_distance_monotones_trivial_cases(qutrit_vertices):
    vertex = qutrit_vertices.projectors[7]
    assert mo.distance_magic(vertex) <= 1e-9
    diag = np.diag([0.1, 0.6, 0.3]).astype(complex)
    assert mo.distance_magic(diag) <= 1e-9
    assert st.incoherent_distance(diag) <= 1e-9


def test_distance_magic_below_coherence(qutrit_vertices):
    rhos = random_qutrit_batch(1000, seed=49)
    d_stab, _, _, _ = st.polytope_distance_batch(rhos, qutrit_vertices.projectors)
    d_inc, _, _, _ = st.polytope_distance_batch(rhos, st.basis_projectors(3))
    assert np.all(d_stab[:, 1] <= d_inc[:, 1] + 1e-9)


def test_qubit_distance_magic_lies_in_the_certified_bracket(qubit_vertices):
    # the closed form (1/2)||r - P(r)||_2 against the solver's certified bracket
    rng = np.random.default_rng(5)
    rhos = np.stack([linalg.random_mixed(2, seed=rng) for _ in range(300)]
                    + [linalg.dm_from_pure(random_pure(2, rng)) for _ in range(300)])
    bounds, _, _, certified = st.polytope_distance_batch(rhos, qubit_vertices.projectors)
    exact = np.array([mo.distance_magic(rho) for rho in rhos])
    assert certified.all()
    assert np.all(bounds[:, 0] <= exact + 1e-12) and np.all(exact <= bounds[:, 1] + 1e-12)
    assert 0 < np.count_nonzero(exact == 0.0) < len(rhos)  # both sides of the octahedron
    # Bloch vector (1, 1, 1)/sqrt(3): (1 - 1/sqrt(3))/2 from its nearest point (1, 1, 1)/3
    theta = np.arccos(1 / np.sqrt(3))
    ket = np.array([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    assert abs(mo.distance_magic(linalg.dm_from_pure(ket)) - (1 - 1 / np.sqrt(3)) / 2) <= 1e-15
    for vertex in qubit_vertices.projectors:
        assert mo.distance_magic(vertex) == 0.0


def test_states_inside_the_free_sets_are_at_distance_exactly_zero(qutrit_vertices):
    rng = np.random.default_rng(58)
    for _ in range(20):
        mixture = np.einsum("m,mij->ij", rng.dirichlet(np.ones(12)), qutrit_vertices.projectors)
        diagonal = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        for rho in (mixture, diagonal):
            values = {r.name: r.value for r in mo.all_monotones(rho)}
            assert mo.distance_magic(rho) == values["distance_magic"] == 0.0
            if rho is diagonal:
                assert st.incoherent_distance(rho) == values["distance_coherence"] == 0.0
        assert st.incoherent_distance(np.diag(rng.dirichlet(np.ones(5))).astype(complex)) == 0.0


def test_distances_outside_the_free_sets_are_the_solvers(qutrit_vertices, named_states):
    # vertices sit on the boundary and pure non-stabilizer states, and the
    # strange state mixed with I/3 below t = 3/4, outside: all are solved
    rng = np.random.default_rng(59)
    strange, mixed = named_states["strange"], named_states["mixed"]
    rhos = (list(qutrit_vertices.projectors)
            + [linalg.dm_from_pure(random_pure(3, rng)) for _ in range(8)]
            + [(1 - t) * strange + t * mixed for t in (0.1, 0.4, 0.7)])
    basis = st.basis_projectors(3)
    for rho in rhos:
        values = {r.name: r.value for r in mo.all_monotones(rho)}
        solved = st.polytope_distance_batch(rho[None], qutrit_vertices.projectors)[0][0, 1]
        assert mo.distance_magic(rho) == values["distance_magic"] == solved
        if np.any(rho[~np.eye(3, dtype=bool)]):
            solved = st.polytope_distance_batch(rho[None], basis)[0][0, 1]
            assert st.incoherent_distance(rho) == values["distance_coherence"] == solved


def test_negativity_product_zero():
    rng = np.random.default_rng(50)
    for _ in range(10):
        prod = linalg.tensor(linalg.random_mixed(3, seed=rng), linalg.random_mixed(2, seed=rng))
        assert mo.negativity(prod, (3, 2)) < 1e-10


def test_negativity_bell():
    vec = np.zeros(6, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    assert abs(mo.negativity(linalg.dm_from_pure(vec), (3, 2)) - 0.5) < 1e-12


def test_negativity_local_unitary_invariant():
    rng = np.random.default_rng(51)

    def haar_unitary(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()

    for _ in range(100):
        rho = linalg.random_mixed(6, seed=rng)
        u = np.kron(haar_unitary(3), haar_unitary(2))
        before = mo.negativity(rho, (3, 2))
        after = mo.negativity(u @ rho @ u.conj().T, (3, 2))
        assert abs(before - after) < 1e-10


def test_negativity_batch_rows_match_the_scalar_form():
    # the scalar form clamps the batch kernel's row at 0, bit for bit; the
    # kernel transposes the second factor, and the first gives the same spectrum
    rng = np.random.default_rng(58)
    rhos = np.concatenate([linalg.ginibre_dm_batch(40, 6, rng), linalg.haar_pure_batch(20, 6, rng),
                           linalg.tensor(linalg.ginibre_dm_batch(10, 3, rng),
                                         linalg.ginibre_dm_batch(10, 2, rng))])
    batch = mo.negativity_batch(rhos, (3, 2))
    assert all(mo.negativity(rho, (3, 2)) == max(0.0, row) for rho, row in zip(rhos, batch))
    on_a = (np.abs(np.linalg.eigvalsh(linalg.partial_transpose(rhos, (3, 2), 0))).sum(axis=1) - 1) / 2
    assert np.max(np.abs(on_a - batch)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2 * linalg.CHUNK + 1])
def test_negativity_batch_matches_the_unchunked_oracle_bit_for_bit(n):
    rng = np.random.default_rng(n)
    rhos = np.concatenate([linalg.ginibre_dm_batch(n, 6, rng), linalg.haar_pure_batch(n, 6, rng)])
    assert np.array_equal(mo.negativity_batch(rhos, (3, 2)), negativity_batch_oracle(rhos, (3, 2)))
    # any leading shape, and one matrix as a numpy scalar, as the oracle gives
    stack = rhos[:n].reshape((1, n, 6, 6))
    assert np.array_equal(mo.negativity_batch(stack, (3, 2)), negativity_batch_oracle(stack, (3, 2)))
    one = mo.negativity_batch(rhos[0], (3, 2))
    assert type(one) is np.float64 and one == negativity_batch_oracle(rhos[0], (3, 2))


def test_negativity_requires_dims():
    with pytest.raises(ValueError):
        mo.negativity(linalg.maximally_mixed(6), (4, 2))


def test_all_monotones_order_and_applicability(named_states):
    reports = mo.all_monotones(named_states["strange"])
    names = [r.name for r in reports]
    assert names == ["sum_negativity", "mana", "l1_coherence", "l2_coherence",
                     "cw_coherence", "distance_magic", "distance_coherence"]
    assert all(r.value >= -1e-10 for r in reports)
    qubit = mo.all_monotones(linalg.maximally_mixed(2))
    assert [r.name for r in qubit] == ["l1_coherence", "l2_coherence"]
    joint = mo.all_monotones(linalg.maximally_mixed(6), dims=(3, 2))
    assert [r.name for r in joint] == ["l1_coherence", "l2_coherence", "negativity"]


def test_monotones_nonnegative_on_random_sample():
    rhos = random_qutrit_batch(50, seed=52)
    for rho in rhos:
        for rep in mo.all_monotones(rho):
            assert rep.value >= -1e-10


def test_estimate_cm_bounds():
    rng = np.random.default_rng(53)
    diag = np.diag([0.2, 0.5, 0.3]).astype(complex)
    assert channels.estimate_cm(diag, 30, seed=rng) <= 1e-9
    for _ in range(5):
        rho = linalg.random_mixed(3, seed=rng)
        est = channels.estimate_cm(rho, 30, seed=rng)
        assert est >= mo.distance_magic(rho) - 1e-9
        assert est <= st.incoherent_distance(rho) + 1e-9


def test_estimate_cm_matches_full_solve():
    # dropping images whose upper bound is below the best lower bound keeps
    # the maximum lower bound of a full solve, up to the solver's gap
    rng = np.random.default_rng(56)
    for _ in range(3):
        rho = linalg.random_mixed(3, seed=rng)
        seed = int(rng.integers(2 ** 32))
        est = channels.estimate_cm(rho, 40, seed=seed)
        draws = np.random.default_rng(seed)
        counts = draws.integers(1, 10, size=40)
        images = np.concatenate([rho[None], channels._images(channels.incoherent_clifford_unitaries(3), rho),
                                 channels._images(channels._incoherent_kraus(counts, 3, draws), rho).sum(axis=1)])
        bounds, _, _, _ = st.polytope_distance_batch(images, st.stabilizer_pure_states(3).projectors)
        assert abs(est - np.max(bounds[:, 0])) <= 1e-9


def test_estimate_cm_is_a_certified_lower_bound():
    # incoherent Clifford unitaries are polytope symmetries, so without
    # sampled channels every image has rho's distance: a lower bound on the
    # supremum may not exceed rho's own upper bound. The two lower bounds
    # come from different solves (plain and rule-driven), each certified to
    # within tol = 1e-9 of the same distance, so they agree to within tol
    rng = np.random.default_rng(54)
    for _ in range(5):
        rho = linalg.random_mixed(3, seed=rng)
        res = st.polytope_distance(rho, st.stabilizer_pure_states(3))
        est = channels.estimate_cm(rho, 0, seed=rng)
        assert res.lower - 1e-9 <= est <= res.distance


@pytest.fixture(scope="module")
def cap_sample():
    """1,000 Ginibre and 1,000 Haar qutrits and the cap (3/4)(1/2)||rho - I/3||_1 of each."""
    rng = np.random.default_rng(5)
    rhos = np.concatenate([linalg.ginibre_dm_batch(1000, 3, rng), linalg.haar_pure_batch(1000, 3, rng)])
    return rhos, 0.375 * np.abs(np.linalg.eigvalsh(rhos - np.eye(3) / 3)).sum(axis=1)


def test_magic_cap_a_facets_are_psd_with_trace_4():
    # each facet sums four projectors (measured: min eigenvalue -2.2e-16, traces 4 within 9e-16)
    facets = st.stabilizer_facets(3)
    assert len(facets) == 81
    assert np.linalg.eigvalsh(facets).min() >= -1e-14
    assert np.max(np.abs(np.einsum("fii->f", facets) - 4.0)) <= 1e-14


def test_magic_cap_b_quarter_mixture_meets_every_facet(cap_sample):
    # tr(F (rho/4 + I/4)) = tr(F rho)/4 + 1 >= 1 (measured: smallest facet value 1.0033)
    rhos, cap = cap_sample
    mid = rhos / 4 + np.eye(3) / 4
    assert st.in_polytope_batch(mid, 0.0).all()
    half_norm = 0.5 * np.abs(np.linalg.eigvalsh(rhos - mid)).sum(axis=1)
    assert np.max(np.abs(half_norm - cap)) <= 1e-14


def test_magic_cap_c_certified_lower_bounds_stay_below_the_cap(cap_sample):
    # measured: every lower bound at least 0.0067 below its cap, the largest cap 1/2 + 3e-16
    rhos, cap = cap_sample
    bounds, _, _, _ = st.polytope_distance_batch(rhos, st.stabilizer_pure_states(3).projectors)
    assert np.all(bounds[:, 0] <= cap)
    assert cap.max() <= 0.5 + 1e-12


def test_magic_cap_d_is_reached_at_the_strange_state(named_states):
    assert abs(mo.distance_magic(named_states["strange"]) - 0.5) <= 1e-12


def test_all_monotones_match_the_single_functions(named_states):
    rhos = list(named_states.values()) + list(random_qutrit_batch(6, seed=55))
    for rho in rhos:
        values = {r.name: r.value for r in mo.all_monotones(rho)}
        assert values == {
            "sum_negativity": mo.sum_negativity(rho), "mana": mo.mana(rho),
            "l1_coherence": mo.l1_coherence(rho), "l2_coherence": mo.lp_coherence(rho, 2),
            "cw_coherence": mo.cw_coherence(rho), "distance_magic": mo.distance_magic(rho),
            "distance_coherence": st.incoherent_distance(rho)}
    rho = linalg.random_mixed(6, seed=56)
    values = {r.name: r.value for r in mo.all_monotones(rho, dims=(3, 2))}
    assert values["negativity"] == mo.negativity(rho, (3, 2))
    assert values["l2_coherence"] == mo.lp_coherence(rho, 2)


def test_batch_coherence_kernels_match_single_state_forms():
    rhos = random_qutrit_batch(40, seed=57)
    joint = linalg.tensor(rhos[:20], rhos[20:])  # 9 x 9 stacks, as in the lp audit
    for batch in (rhos, joint):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert mo.lp_coherence_batch(batch, p).tolist() == [mo.lp_coherence(r, p) for r in batch]
        # l2 as computed before the batch kernel, diagonal subtracted: unchanged bit for bit
        old = [float(np.sum(np.abs(r - np.diag(np.diag(r))) ** 2) ** 0.5) for r in batch]
        assert mo.lp_coherence_batch(batch, 2).tolist() == old
    grids = ps.wigner_batch(rhos, 3)
    values = mo.cw_coherence_grid(grids)
    assert values.tolist() == [float(mo.cw_coherence_grid(w)) for w in grids]
    assert mo.cw_coherence(rhos[0]) == float(mo.cw_coherence_grid(ps.wigner(rhos[0])))


def _count_validations_and_grids(monkeypatch, fn, rho):
    calls = {"validate": 0, "wigner_batch": 0}

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    validate = counting("validate", linalg.validate_density_matrix)
    grid = counting("wigner_batch", ps.wigner_batch)
    for module in (mo, ps, st):
        monkeypatch.setattr(module, "validate_density_matrix", validate)
    for module in (mo, ps):
        monkeypatch.setattr(module, "wigner_batch", grid)
    fn(rho)
    return calls


def test_all_monotones_validates_once_and_builds_one_grid(monkeypatch, named_states):
    calls = _count_validations_and_grids(monkeypatch, mo.all_monotones, named_states["strange"])
    assert calls == {"validate": 1, "wigner_batch": 1}


def test_exact_distances_reach_no_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver was reached")

    monkeypatch.setattr(st, "solve_decided", no_solve)
    rng = np.random.default_rng(61)
    for _ in range(10):
        for qubit in (linalg.random_mixed(2, seed=rng), linalg.dm_from_pure(random_pure(2, rng))):
            st.incoherent_distance(qubit)
            mo.distance_magic(qubit)
    mo.all_monotones(np.diag([0.2, 0.5, 0.3]).astype(complex))
    with pytest.raises(AssertionError, match="solver was reached"):  # the patch is in the path
        st.incoherent_distance(linalg.random_mixed(3, seed=rng))


@pytest.mark.parametrize("entry", ["distance_magic", "incoherent_distance"])
def test_distances_validate_once(monkeypatch, named_states, entry):
    fn = st.incoherent_distance if entry == "incoherent_distance" else mo.distance_magic
    calls = _count_validations_and_grids(monkeypatch, fn, named_states["strange"])
    assert calls == {"validate": 1, "wigner_batch": 0}


def test_monomial_cliffords_permute_the_non_vertical_line_sums(named_states):
    # C_w is a symmetric function of the 9 non-vertical line sums, so it is
    # invariant under any unitary that permutes them; all 54 monomial
    # Cliffords do, on fixed states with no random stream
    g = np.array([[1.0, 2.0j, 0.5], [0.3, -1.0, 1.0j], [2.0, 0.1 - 0.4j, 0.7]])
    asymmetric = g @ g.conj().T / np.trace(g @ g.conj().T).real
    us = channels.incoherent_clifford_unitaries(3)
    assert len(us) == 54
    for rho in (named_states["strange"], named_states["norrell"], named_states["coherent"], asymmetric):
        stack = np.concatenate([rho[None], us @ rho @ us.conj().transpose(0, 2, 1)])
        sums = ps.striation_marginals(ps.wigner_batch(stack, 3))[:, 1:, :].reshape(len(stack), 9)
        sums = np.sort(sums, axis=1)
        assert np.max(np.abs(sums - sums[0])) < 1e-14


_entries = hst.lists(hst.floats(min_value=-1.0, max_value=1.0), min_size=9, max_size=9)


@settings(max_examples=12, deadline=None)
@given(re=_entries, im=_entries, mix=hst.floats(min_value=0.0, max_value=1.0),
       p=hst.sampled_from([1.5, 2.0, 3.0]))
def test_monotones_invariant_under_monomial_cliffords(qutrit_vertices, re, im, mix, p):
    g = np.reshape(re, (3, 3)) + 1j * np.reshape(im, (3, 3))
    gram = g @ g.conj().T
    if np.trace(gram).real < 1e-6:
        gram = np.eye(3)
    rho = (1 - mix) * gram / np.trace(gram).real + mix * np.eye(3) / 3
    us = channels.incoherent_clifford_unitaries(3)
    assert len(us) == 54
    stack = np.concatenate([rho[None], us @ rho @ us.conj().transpose(0, 2, 1)])
    for values in (mo.l1_coherence_batch(stack), mo.lp_coherence_batch(stack, p),
                   mo.cw_coherence_grid(ps.wigner_batch(stack, 3))):
        assert np.max(np.abs(values - values[0])) < 1e-12
    # every bracket holds the one true distance, so all brackets must overlap
    for verts in (qutrit_vertices.projectors, st.basis_projectors(3)):
        bounds, _, _, _ = st.polytope_distance_batch(stack, verts)
        assert bounds[:, 0].max() <= bounds[:, 1].min() + 1e-12


def _csum(control_is_system):
    """The qutrit CSUM on system x ancilla, |a, b> -> |a, a+b> (system
    controls) or |a+b, b> (ancilla controls): a monomial two-qutrit Clifford."""
    out = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            target = 3 * a + (a + b) % 3 if control_is_system else 3 * ((a + b) % 3) + b
            out[target, 3 * a + b] = 1.0
    return out


_COUPLINGS = (np.eye(9), _csum(True), _csum(False))


@settings(max_examples=60, deadline=None)
@given(re=_entries, im=_entries, u=hst.integers(0, 53), v=hst.integers(0, 53),
       anc=hst.lists(hst.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
       coupling=hst.sampled_from(range(len(_COUPLINGS))))
def test_cw_never_increases_under_the_diagonal_ancilla_protocol(re, im, u, v, anc, coupling):
    # C_w(Tr_anc[W (U x V)(rho x sigma)(U x V)^dag W^dag]) <= C_w(rho) for
    # monomial Cliffords U, V, a diagonal ancilla sigma and W the identity or
    # a CSUM either way: the output is a mixture of monomial-Clifford
    # conjugates of rho, so its line sums are a doubly stochastic image of
    # rho's, and C_w is convex and symmetric in them (the README has the argument)
    g = np.reshape(re, (3, 3)) + 1j * np.reshape(im, (3, 3))
    gram = g @ g.conj().T
    rho = gram / np.trace(gram).real if np.trace(gram).real > 1e-6 else np.eye(3) / 3
    weights = np.asarray(anc) if sum(anc) > 1e-6 else np.ones(3)
    sigma = np.diag(weights / weights.sum()).astype(complex)
    us = channels.incoherent_clifford_unitaries(3)
    joint = _COUPLINGS[coupling] @ linalg.tensor(us[u], us[v])
    evolved = joint @ linalg.tensor(rho, sigma) @ joint.conj().T
    out = linalg.partial_trace(evolved, (3, 3), 0)
    before, after = mo.cw_coherence_grid(ps.wigner_batch(np.stack([rho, out]), 3))
    assert after <= before + 1e-12


# The qutrit-qubit trade-off 16 E^2 + 9 M^2 <= 4 as a theorem (README,
# monotones section), one test per step. E is the negativity of the state
# and M the sum negativity of its reduced qutrit rho_A.

@pytest.fixture(scope="module")
def schmidt_states():
    """2 x 10^4 Haar pure qutrit-qubit states, their reduced qutrits and the
    eigenvalues (ascending) and eigenvectors of those."""
    rhos = linalg.haar_pure_batch(20_000, 6, np.random.default_rng(2024))
    reduced = linalg.partial_trace(rhos, (3, 2), 0)
    lam, vec = np.linalg.eigh(reduced)
    return rhos, reduced, lam, vec


def test_tradeoff_step1_pure_negativity_is_the_schmidt_mean(schmidt_states):
    # Schmidt coefficients l1 >= l2 (rho_A has rank 2): E = sqrt(l1 l2)
    rhos, _, lam, _ = schmidt_states
    assert np.all(np.abs(lam[:, 0]) <= 1e-15)
    e = mo.negativity_batch(rhos, (3, 2))
    assert np.max(np.abs(e - np.sqrt(lam[:, 2] * lam[:, 1]))) <= 1e-14


def test_tradeoff_step2_reduced_magic_is_convex_in_the_schmidt_split(schmidt_states):
    # rho_A = (l1 - l2)|a1><a1| + 2 l2 P/2 with P = |a1><a1| + |a2><a2|, and
    # sum_u |W_u| is convex, so M(rho_A) <= (l1 - l2) M(a1) + 2 l2 M(P/2);
    # with steps 3 and 4 that is M(rho_A) <= (2/3)(l1 - l2)
    _, reduced, lam, vec = schmidt_states
    l1, l2 = lam[:, 2], lam[:, 1]
    a1 = np.einsum("ni,nj->nij", vec[:, :, 2], vec[:, :, 2].conj())
    half_p = (a1 + np.einsum("ni,nj->nij", vec[:, :, 1], vec[:, :, 1].conj())) / 2
    assert np.max(np.abs(reduced - (l1 - l2)[:, None, None] * a1 - 2 * l2[:, None, None] * half_p)) <= 1e-14
    m, m_a1, m_half_p = (mo.sum_negativity_grid(ps.wigner_batch(s, 3)) for s in (reduced, a1, half_p))
    assert np.max(m - ((l1 - l2) * m_a1 + 2 * l2 * m_half_p)) <= 1e-12
    assert np.max(m - 2 / 3 * (l1 - l2)) <= 0.0
    # M >= 0, as sum_u |W_u| >= sum_u W_u = 1; so 9 M^2 + 16 E^2 <= 4 (l1 - l2)^2 + 16 l1 l2 = 4
    assert m.min() >= -1e-15


def test_tradeoff_step3_half_a_rank_two_projector_has_no_negativity():
    # P = I - |c><c|: the phase-point operators have eigenvalues +-1 and
    # trace 1, so W_u(P/2) = (1 - <c|A_u|c>)/6 >= 0 and M(P/2) = 0
    ops = ps.phase_point_ops(3).reshape(9, 3, 3)
    eigs = np.linalg.eigvalsh(ops)
    assert np.allclose(np.abs(eigs), 1.0, atol=1e-14)
    assert np.allclose(np.einsum("uii->u", ops), 1.0, atol=1e-14)
    c = linalg.haar_pure_batch(20_000, 3, np.random.default_rng(2024))
    grids = ps.wigner_batch((np.eye(3) - c) / 2, 3)
    closed = (1.0 - np.einsum("uij,nji->nu", ops, c).real) / 6
    assert np.max(np.abs(grids.reshape(-1, 9) - closed)) <= 1e-15
    assert grids.min() >= 0.0
    assert mo.sum_negativity_grid(grids).max() <= 1e-14


def test_tradeoff_step4_pure_qutrit_sum_negativity_peaks_at_two_thirds(named_states):
    # 40 Nelder-Mead starts over pure qutrits; the strange and Norrell
    # states attain 2/3 (Veitch et al., NJP 16, 013009, 2014)
    from scipy.optimize import minimize

    def minus_m(x):
        psi = x[:3] + 1j * x[3:]
        return -mo.sum_negativity_grid(ps.wigner(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real))

    rng = np.random.default_rng(2024)
    best = max(-minimize(minus_m, rng.standard_normal(6), method="Nelder-Mead").fun for _ in range(40))
    assert 2 / 3 - 1e-9 <= best <= 2 / 3 + 1e-12
    for name in ("strange", "norrell"):
        assert abs(mo.sum_negativity(named_states[name]) - 2 / 3) <= 1e-15


# Step 4 proved: the Hesse SIC bound on pure qutrits, one test per lemma.

@pytest.fixture(scope="module")
def hesse_sic():
    """The nine phase-point operators A_u and unit vectors a_u with
    A_u = I - 2|a_u><a_u| (the eigenvector of eigenvalue -1)."""
    ops = ps.phase_point_ops(3).reshape(9, 3, 3)
    return ops, np.linalg.eigh(ops)[1][:, :, 0]


def test_tradeoff_step4a_phase_point_operators_form_a_hesse_sic(hesse_sic):
    # A_u = I - 2|a_u><a_u|; tr(A_u A_v) = 3 delta_uv = -1 + 4 |<a_u|a_v>|^2,
    # so |<a_u|a_v>|^2 = 1/4 for u != v
    ops, a = hesse_sic
    assert np.max(np.abs(np.einsum("uij,vji->uv", ops, ops) - 3 * np.eye(9))) <= 1e-14
    proj = np.einsum("ui,uj->uij", a, a.conj())
    assert np.max(np.abs(ops - (np.eye(3) - 2 * proj))) <= 1e-14
    overlaps = np.abs(a.conj() @ a.T) ** 2
    assert np.max(np.abs(overlaps - np.where(np.eye(9, dtype=bool), 1.0, 0.25))) <= 1e-14


def test_tradeoff_step4b_pure_sum_negativity_is_the_sic_excess(hesse_sic):
    # x_u = |<a_u|psi>|^2 gives W_u = (1 - 2 x_u)/3 and sum_u x_u = 3, so
    # M = sum_u |W_u| - 1 = (2/3) sum_u max(0, 2 x_u - 1)
    _, a = hesse_sic
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((20_000, 3)) + 1j * rng.standard_normal((20_000, 3))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    x = np.abs(psi @ a.conj().T) ** 2
    assert np.max(np.abs(x.sum(axis=1) - 3.0)) <= 1e-14
    m = mo.sum_negativity_grid(ps.wigner_batch(np.einsum("ni,nj->nij", psi, psi.conj()), 3))
    assert np.max(np.abs(m - 2 / 3 * np.maximum(0.0, 2 * x - 1).sum(axis=1))) <= 1e-14


def test_tradeoff_step4c_no_sic_subset_exceeds_one(hesse_sic):
    # sum_{u in N} x_u <= lambda_max(G_N), G_N the Gram matrix of the a_u in
    # N, and Gershgorin gives 2 lambda_max(G_N) - |N| <= 1 over all 511
    # nonempty N; with step 4b, M <= (2/3) * 1 on every pure qutrit
    _, a = hesse_sic
    gram = a.conj() @ a.T
    excess = [2 * np.linalg.eigvalsh(gram[np.ix_(n, n)])[-1] - len(n)
              for n in ([u for u in range(9) if mask >> u & 1] for mask in range(1, 512))]
    assert len(excess) == 511
    assert max(excess) <= 1 + 1e-12


def test_tradeoff_step5_mixed_states_peak_at_pure_ones():
    # E (a trace norm of the linear map rho -> rho^{T_B}) and M (of the
    # linear map rho -> Tr_B rho) are convex and nonnegative, so
    # 16 E^2 + 9 M^2 is convex and its maximum over states is at a pure state
    rng = np.random.default_rng(2024)
    a, b = linalg.ginibre_dm_batch(2000, 6, rng), linalg.haar_pure_batch(2000, 6, rng)
    t = rng.uniform(size=2000)
    mix = t[:, None, None] * a + (1 - t)[:, None, None] * b

    def e_and_m(rhos):
        m = mo.sum_negativity_grid(ps.wigner_batch(linalg.partial_trace(rhos, (3, 2), 0), 3))
        return mo.negativity_batch(rhos, (3, 2)), m

    for at_mix, at_a, at_b in zip(e_and_m(mix), e_and_m(a), e_and_m(b)):
        assert np.max(at_mix - (t * at_a + (1 - t) * at_b)) <= 1e-12
