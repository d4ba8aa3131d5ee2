import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import (channels, cli, linalg, monotones as mo, phasespace as ps,
                      stabilizer as st, stateio)
from conftest import (cw_grid_oracle, cw_lp_oracle, negativity_batch_oracle, random_pure,
                      random_qutrit_batch)


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
    stateio.write_state(path, mixed)
    assert cli.main(["wigner", "--state", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# sum_negativity=0 mana=0"


@pytest.mark.parametrize("base", [1, 1.0, 0.0, -2.0, np.inf, -np.inf, np.nan])
def test_mana_rejects_bases_without_a_logarithm(named_states, base):
    with pytest.raises(ValueError, match="mana base"):
        mo.mana(named_states["strange"], base=base)


@pytest.mark.parametrize("base", ["1", "-2", "0", "nan", "inf"])
def test_cli_wigner_rejects_mana_base_without_a_logarithm(tmp_path, capsys, base):
    # in-process, so the error path costs no interpreter start
    path = tmp_path / "mixed.txt"
    stateio.write_state(path, linalg.maximally_mixed(3))
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


def test_cw_grid_minimizer_is_a_breakpoint(named_states):
    rho = named_states["coherent"]
    value, lam = mo.cw_coherence_grid(ps.wigner(rho))
    assert value == mo.cw_coherence(rho)
    breakpoints = np.append(1.0, 3 * ps.striation_marginals(ps.wigner(rho))[1:].ravel())
    assert lam > 0 and np.min(np.abs(breakpoints - lam)) < 1e-12


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
    values, lams = mo.cw_coherence_grid(grids)
    single = [mo.cw_coherence_grid(w) for w in grids]
    assert values.tolist() == [float(v) for v, _ in single]
    assert lams.tolist() == [float(lam) for _, lam in single]
    assert mo.cw_coherence(rhos[0]) == float(mo.cw_coherence_grid(ps.wigner(rhos[0]))[0])


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
                   mo.cw_coherence_grid(ps.wigner_batch(stack, 3))[0]):
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
    before, after = mo.cw_coherence_grid(ps.wigner_batch(np.stack([rho, out]), 3))[0]
    assert after <= before + 1e-12
