import numpy as np
import pytest

from magiclab import channels, experiments, linalg, phasespace, stabilizer, stateio


@pytest.fixture(autouse=True)
def _fresh_run_all_pool(request):
    """run_all's forked workers keep the library as it was when their pool was
    made, so a test that may patch the library gets a pool forked after its
    patches and leaves none behind that still carries them."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    experiments._drop_pool()
    yield
    experiments._drop_pool()


@pytest.fixture(scope="session")
def qutrit_vertices():
    return stabilizer.stabilizer_pure_states(3)


@pytest.fixture(scope="session")
def qubit_vertices():
    return stabilizer.stabilizer_pure_states(2)


@pytest.fixture(scope="session")
def named_states():
    return {
        "strange": linalg.dm_from_pure(linalg.strange_state()),
        "norrell": linalg.dm_from_pure(linalg.norrell_state()),
        "coherent": linalg.dm_from_pure(linalg.maximally_coherent_state()),
        "mixed": linalg.maximally_mixed(3),
    }


def is_density_matrix(rho):
    """Boolean form of :func:`linalg.validate_density_matrix`."""
    try:
        linalg.validate_density_matrix(rho)
    except ValueError:
        return False
    return True


def trace_distance(a, b):
    """(1/2) ||a - b||_1 for Hermitian matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def random_pure(d, seed=None):
    """Haar-random pure state: i.i.d. complex Gaussian vector, normalized."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    rng = linalg.rng_from(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def sample_channel(d, n_kraus, seed=None):
    """Random CPTP channel from a Haar isometry (see `channels._haar_kraus`); n_kraus
    = d*d is the full-environment ensemble, n_kraus = 1 gives Haar random unitaries."""
    return channels.KrausChannel(kraus=channels._haar_kraus([n_kraus], d, linalg.rng_from(seed))[0])


def selective_outcomes(channel, rho):
    """[(p_i, K_i rho K_i^dag / p_i)] for outcomes with p_i above channels.PROB_FLOOR."""
    out = channels._images(channel.kraus, linalg.validate_density_matrix(rho))
    p = np.einsum("kii->k", out).real
    keep = p > channels.PROB_FLOOR
    return list(zip(p[keep].tolist(), out[keep] / p[keep, None, None]))


def write_state(path, state):
    with open(path, "w", newline="") as fh:
        fh.write(stateio.dumps_state(state))


def ginibre_dm_batch_oracle(n, d, rng):
    """The unchunked Ginibre sampler: a + 1j*b, one full-stack einsum for
    G G^dag, and a division by the trace into a new stack."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = np.einsum("nik,njk->nij", g, g.conj())
    return rho / np.einsum("nii->n", rho).real[:, None, None]


def haar_pure_batch_oracle(n, d, rng):
    """The Haar sampler with its draw as a + 1j*b."""
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return np.einsum("ni,nj->nij", v, v.conj())


def negativity_batch_oracle(rhos, dims):
    """Negativity from one unchunked partial transpose and eigvalsh of the whole stack."""
    pt = linalg.partial_transpose(rhos, dims, 1)
    return (np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1) - 1.0) / 2.0


def random_qutrit_batch(n, seed):
    """Half Haar-pure, half HS-mixed qutrit states, stacked (n, 3, 3)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 2:
            out.append(linalg.random_mixed(3, seed=rng))
        else:
            out.append(linalg.dm_from_pure(random_pure(3, rng)))
    return np.stack(out)


def kraus_images_loop(kraus, rho):
    """K_i rho K_i^dag for each Kraus matrix, one at a time (list of (d, d))."""
    return [k @ rho @ k.conj().T for k in kraus]


def pure_trace_distance(ket_a, ket_b):
    """Trace distance of the rank-1 projectors, sqrt(1 - |<a|b>|^2), computed
    as the norm of the component of b orthogonal to a (stays accurate near 0)."""
    residual = ket_b - np.vdot(ket_a, ket_b) * ket_a
    return float(np.linalg.norm(residual))


def project_simplex(v):
    """Row-wise Euclidean projection of an (n, m) array onto the probability
    simplex, by the sort and the last index k with u_k > (u_1 + ... + u_k - 1)/k
    (Held, Wolfe & Crowder, 1974): the oracle of the library's max form."""
    u = np.sort(v, axis=1)[:, ::-1]
    shifts = (u.cumsum(axis=1) - 1.0) / np.arange(1, v.shape[1] + 1)
    last = v.shape[1] - 1 - (u > shifts)[:, ::-1].argmax(axis=1)
    return np.maximum(v - shifts[np.arange(len(v)), last, None], 0.0)


def slsqp_polytope_oracle(rho, vertices, starts=12, seed=11):
    """Independent trace-distance minimizer: SLSQP multi-start with analytic
    gradients and the returned weights projected exactly onto the simplex
    (raw SLSQP output can be slightly infeasible and undershoot the true
    minimum)."""
    from scipy.optimize import minimize

    vertices = np.asarray(vertices)
    m = len(vertices)

    def f(w):
        delta = rho - np.einsum("m,mij->ij", w, vertices)
        return np.sum(np.abs(np.linalg.eigvalsh(delta))) / 2

    def grad(w):
        """The subgradient -tr(X v_i) of f, with X = sign(rho - sum_i w_i v_i) / 2."""
        lam, u = np.linalg.eigh(rho - np.einsum("m,mij->ij", w, vertices))
        x = (u * np.sign(lam)) @ u.conj().T / 2
        return -np.einsum("jk,mkj->m", x, vertices).real

    best = np.inf
    rng = np.random.default_rng(seed)
    for _ in range(starts):
        res = minimize(f, rng.dirichlet(np.ones(m)), method="SLSQP", jac=grad,
                       bounds=[(0, 1)] * m,
                       constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1,
                                     "jac": lambda w: np.ones(m)}],
                       options={"maxiter": 400, "ftol": 1e-14})
        best = min(best, f(project_simplex(res.x[None])[0]))
    return best


def _cw_k_vector(rho):
    """Concatenated striation marginals of rho's Wigner grid, scaled to sum to 1."""
    marg = phasespace.striation_marginals(phasespace.wigner(rho))
    return marg.reshape(-1) / marg.shape[0]


def _cw_k_map(d):
    """Linear map sigma -> K_sigma: columns are K vectors of the basis projectors."""
    return np.array([_cw_k_vector(np.diag(e).astype(complex)) for e in np.eye(d)]).T


def cw_grid_oracle(rho, coarse=0.01, lam_step=0.01, refine_rounds=4, lam_max=3.0):
    """Dense-grid reference for C_w = min ||K_rho - lambda K_sigma||_1 (qutrit only).

    Scans a (sigma_1, sigma_2, lambda) grid, then refines locally around the
    best point; the objective is convex in lambda*sigma, so the coarse basin
    is the right one and refinement is a pure resolution matter. Independent
    of the closed form; slow but simple.
    """
    rho = linalg.validate_density_matrix(rho)
    if rho.shape[0] != 3:
        raise ValueError("the grid oracle is written for qutrits")
    k_rho = _cw_k_vector(rho)
    k_map = _cw_k_map(3)

    def scan(s1_vals, s2_vals, lam_vals):
        s1g, s2g = np.meshgrid(s1_vals, s2_vals, indexing="ij")
        keep = s1g + s2g <= 1.0 + 1e-12
        s1f, s2f = s1g[keep], s2g[keep]
        sig = np.stack([s1f, s2f, 1.0 - s1f - s2f], axis=0)  # (3, ns)
        ks = k_map @ sig  # (12, ns)
        best = (np.inf, None)
        for lam in lam_vals:
            vals = np.abs(k_rho[:, None] - lam * ks).sum(axis=0)
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (float(vals[i]), (float(s1f[i]), float(s2f[i]), float(lam)))
        return best

    val, (s1, s2, lam) = scan(np.arange(0, 1 + coarse, coarse),
                              np.arange(0, 1 + coarse, coarse),
                              np.arange(0, lam_max + lam_step, lam_step))
    width_s, width_l = 2 * coarse, 2 * lam_step
    for _ in range(refine_rounds):
        s1_vals = np.linspace(max(0, s1 - width_s), min(1, s1 + width_s), 81)
        s2_vals = np.linspace(max(0, s2 - width_s), min(1, s2 + width_s), 81)
        lam_vals = np.linspace(max(0, lam - width_l), min(lam_max, lam + width_l), 81)
        val, (s1, s2, lam) = scan(s1_vals, s2_vals, lam_vals)
        width_s /= 20.0
        width_l /= 20.0
    return val


def cw_lp_oracle(rho):
    """Exact C_w by linear programming: with x = lambda sigma >= 0 the problem
    is the L1 regression min ||K_rho - K x||_1, solved by HiGHS with slack
    variables t >= |K_rho - K x|."""
    from scipy.optimize import linprog

    k_rho = _cw_k_vector(rho)
    k_map = _cw_k_map(rho.shape[0])
    n, d = k_map.shape
    eye = np.eye(n)
    res = linprog(np.concatenate([np.zeros(d), np.ones(n)]),
                  A_ub=np.block([[k_map, -eye], [-k_map, -eye]]),
                  b_ub=np.concatenate([k_rho, -k_rho]),
                  bounds=[(0, None)] * (d + n), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.fun


def result1_oracle(n_trials, seed, tol):
    """result1's worst margin and violation count from two full certified
    solves of its pairs (magic of every image, coherence of every state),
    with no pruning."""
    rhos, outcomes = channels._incoherent_outcomes(n_trials, np.random.default_rng(seed))
    images = outcomes.sum(axis=1)
    magic, _, _, _ = stabilizer.polytope_distance_batch(
        images, stabilizer.stabilizer_pure_states(3).projectors)
    coh, _, _, _ = stabilizer.polytope_distance_batch(rhos, stabilizer.basis_projectors(3))
    margins = magic[:, 1] - coh[:, 0]
    return float(np.max(margins)), int(np.sum(margins > tol))


def csv_text_oracle(header, rows, trailer):
    """The per-cell CSV writer: strings as they are, every other cell through
    format(float(x), '.17g'), lines joined by newlines."""
    def fmt(x):
        return x if isinstance(x, str) else format(float(x), ".17g")

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    lines.extend(f"# {key}={fmt(val)}" for key, val in trailer)
    return "\n".join(lines) + "\n"
