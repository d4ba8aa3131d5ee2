"""Pure stabilizer states and distances to the stabilizer polytope.

The single-qudit Clifford group is enumerated once per dimension, by
breadth-first search over words in the generators X (shift), Z (clock),
F (Fourier) and S (phase), modulo global phase: 24 elements for d = 2, 216
for d = 3. The vertex set is the group's orbit of |0><0|, deduplicated by
phase: the twelve qutrit vertices (the eigenvectors of the four mutually
unbiased bases) and the six octahedron vertices of the qubit. Both, and the
hull's exact facets (`stabilizer_facets`), are cached per dimension on first use.
Membership is read off the facets alone, with no solve (`in_polytope_batch`).

Distances are minimum trace distances to the convex hull of a vertex list,
min over simplex weights w of (1/2)||rho - sum_i w_i v_i||_1. The solver is
an ADMM splitting whose two half-steps are cheap: eigenvalue soft
thresholding for the trace-norm block and warm-started FISTA steps of
simplex-constrained least squares for the weights. The FISTA step is 1/L_T,
with L_T = lambda_max(P G P) the curvature of the vertex Gram matrix G on
the sum-zero directions (P = I - J/m, J the all-ones matrix): a move along
the all-ones direction only shifts the gradient by a constant, which the
simplex projection removes. L_T = 1 for both vertex families, so the step
is 1. The stabilizer vertices are d + 1 mutually unbiased bases, so
G = J/d + B, B = blockdiag(I - J/d) a nonzero projector onto sum-zero
vectors: P J P = 0 and P B P = B. The m basis projectors have G = I and
P G P = P, a projector for m >= 2; one vertex has P G P = 0, where the
projection fixes w = 1 at any step. Every distance comes as a certified
bracket [lower, upper]. The upper bound is the trace distance at the
current feasible weights. The lower bound is trace-norm duality: any
Hermitian X with ||X||_inf <= 1/2 gives

    (1/2)||rho - sigma||_1 >= tr(X rho) - max_i tr(X v_i)

for every sigma in the hull. The solver tries two such X, each from one
eigendecomposition: the ADMM dual, negated and clipped to that ball, and
half the sign of the residual rho - sum_i w_i v_i. Any X in the ball gives
a valid bound, so the choice of X affects only how fast states certify.
Over another vertex list the step 1 may be too long, so a state may end
uncertified at `MAX_ITER`, but for these two reasons its bracket is sound.
Each state stops once upper - lower <= `TOL`. A caller that asks a question
of the distances rather than their values can also stop a state as soon as
its bracket answers it: :func:`solve_decided` takes a rule that marks the
states whose question is answered (in `channels`, `estimate_cm` and the
result1 audit). The brackets are updated every 10 sweeps, and a solve with
a rule also reads them after sweeps 1 and 2, where most of its states are
decided. The same minimizer over the computational-basis projectors gives
the distance to the incoherent states. (A plain Frank-Wolfe scheme with
exact line search stalls here: the steepest-descent vertex computed from a
subgradient need not be a descent direction at the eigenvalue crossings
where the optimum sits.)

ADMM's rate is linear, but a qutrit's optimal support is mostly final by
the first read. So at each read a plain solve (one with no rule) polishes
its open states, as OSQP polishes its ADMM solutions (Stellato et al.,
Math. Prog. Comp. 12, 637, 2020): with the support S = {w_i > 1e-7} fixed,
a few Newton steps solve the optimality conditions on the smooth manifold
of that structure (the U-Newton step of Mifflin & Sagastizabal, Math.
Program. 104, 583, 2005), first for a residual with a 1-d kernel, where
X = (P+ - P-)/2 + c ee^dag, then for one with none, where X = sign/2. The
sign witness with a free c on the kernel is an optimal dual whenever the
residual's kernel is at most 1-d, so at the polished weights the bracket
closes to rounding. The polished weights are kept only if they are
feasible, lower no upper bound and close the bracket against that X with
c clipped into the ball; else ADMM goes on untouched. Over vertices whose
Gram matrix is I, such as the basis projectors, a plain solve also polishes
before sweep 1, from the Frobenius-nearest weights: the simplex projection
of tr(v_i rho), diag(rho) for the basis, which is often already optimal.
The states it leaves open start ADMM from the uniform weights. A solve with
a rule is not polished: its states mostly stop by the rule at sweeps 1 and
2, and its iterates, and so the audit's bits, stay those of plain ADMM.

`incoherent_distance` and `monotones.distance_magic` solve only the states
with no exact value. For diagonal sigma, rho - sigma is traceless with
eigenvalues +-sqrt(x^2 + |rho_01|^2), so a qubit's incoherent distance is
|rho_01|, and a state whose off-diagonal entries are all 0 is at distance 0.
Two qubits lie at half the distance of their Bloch vectors, so a qubit's
magic distance is (1/2)||r - P(r)||_2, with P the projection onto the
octahedron ||r||_1 <= 1: r inside, else the simplex projection of |r| with
r's signs (Duchi et al., ICML 2008). A qutrit with min tr(F rho) >= 1 + 1e-12
over the facets is a member, at distance 0: that margin is far above the
rounding of tr(F rho). Boundary states, such as the vertices, are solved.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product

import numpy as np

from .linalg import validate_density_matrix
from .phasespace import _is_prime, clock_matrix, shift_matrix

GENERATOR_NAMES = ("X", "Z", "F", "S")
TOL = 1e-9         # a solve certifies a state once upper - lower <= TOL
MAX_ITER = 5000    # the sweeps after which a solve stops, certified or not
VERTEX_TOL = 1e-7  # in_polytope_batch's default facet slack, and channels' vertex slack

_vertex_cache = {}


def clifford_generators(d):
    """The generators [X, Z, F, S] of the single-qudit Clifford group.

    F_{jk} = w^{jk}/sqrt(d); S = diag(w^{j(j-1)/2}) for odd prime d and
    diag(1, i) for d = 2 (the qubit phase gate, needed to close the
    octahedron orbit).
    """
    if not _is_prime(d):
        raise ValueError(f"generators are defined for prime d, got {d}")
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    f = omega ** np.outer(j, j) / np.sqrt(d)
    if d == 2:
        s = np.diag([1.0, 1.0j])
    else:
        inv2 = (d + 1) // 2
        s = np.diag(omega ** (j * (j - 1) * inv2 % d))
    return [shift_matrix(d), clock_matrix(d), f, s]


def _phase_key(u):
    """Hashable canonical form of an array modulo global phase, to 8 decimals."""
    flat = u.reshape(-1)
    idx = np.argmax(np.abs(flat) > 1e-9)
    v = u * np.exp(-1j * np.angle(flat[idx]))
    parts = np.round(np.stack([v.real, v.imag]), 8) + 0.0  # +0.0 folds -0.0
    return parts.tobytes()


@dataclass(frozen=True)
class CliffordGroup:
    """Single-qudit Clifford unitaries modulo global phase, in BFS order."""
    unitaries: np.ndarray  # (n, d, d)
    words: tuple           # generator word of each element, "" for the identity


@lru_cache(maxsize=None)
def clifford_group(d):
    """Breadth-first closure of X, Z, F, S (in that order) modulo global phase,
    for d in {2, 3}; cached per dimension, with a read-only unitary stack."""
    if d not in (2, 3):
        raise ValueError(f"Clifford enumeration supports d in {{2, 3}}, got {d}")
    gens = clifford_generators(d)
    group, words = [np.eye(d, dtype=complex)], [""]
    seen = {_phase_key(group[0])}
    for i, u in enumerate(group):  # the list is the BFS queue: it grows while walked
        for name, g in zip(GENERATOR_NAMES, gens):
            v = g @ u
            key = _phase_key(v)
            if key not in seen:
                seen.add(key)
                group.append(v)
                words.append(name + words[i])
    unitaries = np.array(group)
    unitaries.setflags(write=False)
    return CliffordGroup(unitaries=unitaries, words=tuple(words))


@dataclass(frozen=True)
class StabilizerVertexSet:
    """Pure stabilizer projectors for one dimension, with generator provenance."""
    kets: np.ndarray        # (n, d), phase-canonical
    projectors: np.ndarray  # (n, d, d)
    words: tuple            # generator word producing each vertex, e.g. "FX|0>"

    def __len__(self):
        return len(self.kets)


def stabilizer_pure_states(d):
    """The Clifford orbit of |0><0| for d in {2, 3}: the first column of each
    group element, in group order (so vertex indices are stable), deduplicated
    modulo phase. Cached per dimension, with read-only arrays."""
    if d in _vertex_cache:
        return _vertex_cache[d]
    group = clifford_group(d)
    keys = [_phase_key(u[:, 0]) for u in group.unitaries]
    picked = [keys.index(key) for key in dict.fromkeys(keys)]  # first element reaching each ket
    kets = group.unitaries[picked, :, 0]
    # rotate each ket so its first significant entry is real positive
    lead = kets[np.arange(len(kets)), np.argmax(np.abs(kets) > 1e-9, axis=1)]
    kets = kets * np.exp(-1j * np.angle(lead))[:, None]
    projectors = np.einsum("ni,nj->nij", kets, kets.conj())
    kets.setflags(write=False)
    projectors.setflags(write=False)
    _vertex_cache[d] = StabilizerVertexSet(kets=kets, projectors=projectors,
                                           words=tuple(group.words[i] + "|0>" for i in picked))
    return _vertex_cache[d]


@lru_cache(maxsize=None)
def stabilizer_facets(d):
    """The facets of the stabilizer polytope, d in {2, 3}: rho is a member iff
    tr(F rho) >= 1 for each F of this read-only (d^(d+1), d, d) stack. F sums
    one projector from each of the d+1 mutually unbiased bases (vertices i, j
    share one iff |<i|j>|^2 != 1/d); the 81 qutrit F include the nine A_u + I."""
    verts = stabilizer_pure_states(d)
    same_basis = np.abs(np.abs(verts.kets.conj() @ verts.kets.T) ** 2 - 1.0 / d) > 1e-9
    bases = dict.fromkeys(tuple(np.flatnonzero(row)) for row in same_basis)
    facets = verts.projectors[np.array(list(product(*bases)))].sum(axis=1)
    facets.setflags(write=False)
    return facets


def in_polytope_batch(rhos, tol=VERTEX_TOL):
    """Polytope membership per matrix of a (..., d, d) stack, unvalidated: min
    tr(F rho) >= 1 - tol over the `stabilizer_facets` F. `tol` is a facet slack;
    a violation s puts rho at trace distance >= s / sqrt(5) from the polytope."""
    facets = stabilizer_facets(np.shape(rhos)[-1])
    return np.einsum("fij,...ji->...f", facets, rhos).real.min(axis=-1) >= 1.0 - tol


def basis_projectors(d):
    """The d computational-basis projectors, the vertices of the incoherent simplex."""
    return np.stack([np.diag(row).astype(complex) for row in np.eye(d)])


# ---------------------------------------------------------------------------
# trace-distance minimization over a vertex simplex (ADMM splitting)
# ---------------------------------------------------------------------------

def _project_simplex_batch(v):
    """Row-wise Euclidean projection onto the probability simplex, max(v - theta, 0).

    With u the row sorted in decreasing order and f_k = (u_1 + ... + u_k - 1)/k,
    the shift theta is f at the last k with u_k > f_k (Held, Wolfe & Crowder,
    Math. Prog. 6, 62, 1974), which is also max_k f_k (Condat, Math. Prog. 158,
    575, 2016): (k - 1)(f_k - f_{k-1}) = u_k - f_k, and u_k > f_k holds on a
    prefix, so f rises up to that k and does not rise after it. In floating
    point the two forms agree bit for bit except at exact ties u_{k+1} = f_k,
    where rounding can lift f_{k+1} above f_k, and the shifts then differ by
    up to 2.2e-16.
    """
    css = np.sort(v, axis=1)[:, ::-1].cumsum(axis=1)
    css -= 1.0
    css /= np.arange(1, v.shape[1] + 1)
    return np.maximum(v - css.max(axis=1, keepdims=True), 0.0)


@dataclass(frozen=True)
class PolytopeResult:
    """Outcome of a simplex-constrained trace-distance minimization.

    The distance lies in [lower, distance]: `distance` is the trace distance
    at `weights`, `lower` the dual certificate, and `certified` means
    gap = distance - lower closed to within the solver's tolerance. The two
    bounds are separate float sums, so at an exact optimum the gap can read
    a rounding-level negative value. `iterations` counts ADMM sweeps, 0 for
    a state certified before sweep 1.
    """
    distance: float
    lower: float
    gap: float
    weights: np.ndarray
    iterations: int
    certified: bool


def _from_eigh(u, lam):
    """u diag(lam) u^dag for stacks of eigenvectors and eigenvalues."""
    return (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)


def _dual_bound(rhos, u, lam, vdual):
    """L(X) = tr(X rho) - max_i tr(X v_i) at X = u diag(lam) u^dag, per state;
    a lower bound on the distance whenever every |lam| <= 1/2."""
    x = _from_eigh(u, lam)
    at_verts = (x.reshape(len(x), -1) @ vdual).real
    return np.einsum("nij,nji->n", x, rhos).real - at_verts.max(axis=1)


_INNER_STEPS = 5  # FISTA steps per weight half-step, warm-started
_RELAX = 1.6      # ADMM over-relaxation of the trace-norm block
# the sweeps after which a decision-directed solve reads its brackets too
_EARLY_BRACKETS = (1, 2)
# FISTA's momentum (t_k - 1)/t_{k+1} per step, t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2
_T = tuple(accumulate(range(_INNER_STEPS), lambda t, _: (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0, initial=1.0))
_MOMENTA = tuple((t - 1.0) / t_next for t, t_next in zip(_T, _T[1:]))
_SUPPORT_CUT = 1e-7  # a plain solve's polish fixes the support {w_i > _SUPPORT_CUT}
_POLISH_STEPS = 4    # Newton steps per assumed residual structure


def _newton(rhos, verts, w, support, kernel):
    """`_POLISH_STEPS` Newton steps on the KKT system of a fixed support S and
    residual structure, for a stack of states at once.

    With Delta = rho - Vw = U diag(lam) U^dag and X = U diag(g) U^dag,
    g = sign(lam)/2, the unknowns are w, mu and, if `kernel`, the
    coefficient c = g_k of the eigenvalue lam_k nearest 0. The equations are
    tr(X v_i) = mu for i in S, sum(w) = 1 and, if `kernel`, lam_k = 0; the
    weights off S are held at 0 by identity rows. The Jacobian is analytic
    (Daleckii-Krein): with A_j = U^dag v_j U, a move dw turns X by
    dX_ab = -sum_j dw_j A_j,ab (g_b - g_a)/(lam_b - lam_a) in U's basis and
    moves lam_k by -sum_j dw_j A_j,kk. An exactly singular system takes its
    least-squares step: dropping that step moves the qubit-octahedron pin
    stack_stabilizer_2. A state whose system or step is not finite stops
    moving and is marked failed. Returns (weights, c, failed).
    """
    n, d = rhos.shape[:2]
    m = len(verts)
    vflat = verts.reshape(m, d * d)
    on = support.astype(float)
    rows = np.arange(n)
    jac = np.zeros((n, m + 2, m + 2))
    jac[:, np.arange(m), np.arange(m)] = 1.0 - on
    jac[:, :m, m] = -on
    jac[:, m, :m] = 1.0
    jac[:, m + 1, m + 1] = 0.0 if kernel else 1.0
    ident = jac[:, :m, :m].copy()
    res = np.zeros((n, m + 2))
    mu, c = np.zeros(n), np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    for step in range(_POLISH_STEPS):
        lam, u = np.linalg.eigh(rhos - (w @ vflat).reshape(n, d, d))
        if step == 0:
            k = np.argmin(np.abs(lam), axis=1)
        g = 0.5 * np.sign(lam)
        if kernel:
            g[rows, k] = c
        # a[n, (a, b), j] = (U^dag v_j U)_ab, zero off S, from one gemm over all states
        outer = (u.conj()[:, :, :, None, None] * u[:, None, None]).transpose(0, 2, 4, 1, 3)
        a = (outer.reshape(n * d * d, d * d) @ vflat.T).reshape(n, d * d, m) * on[:, None, :]
        gap_g, gap_lam = g[:, None, :] - g[:, :, None], lam[:, None, :] - lam[:, :, None]
        dd = np.divide(gap_g, gap_lam, out=np.zeros_like(gap_lam), where=(gap_g != 0.0) & (gap_lam != 0.0))
        jac[:, :m, :m] = ident - (a.conj().transpose(0, 2, 1) @ (a * dd.reshape(n, d * d, 1))).real
        diag = a[:, ::d + 1].real  # (n, d, m): the diagonals (U^dag v_j U)_aa
        res[:, :m] = np.where(support, (g[:, None, :] @ diag)[:, 0] - mu[:, None], w)
        res[:, m] = w.sum(axis=1) - 1.0
        if kernel:
            jac[:, :m, m + 1] = diag[rows, k]
            jac[:, m + 1, :m] = -diag[rows, k]
            res[:, m + 1] = lam[rows, k]
        bad = ~np.isfinite(jac.sum(axis=(1, 2)) + res.sum(axis=1))
        jac[bad], res[bad] = np.eye(m + 2), 0.0
        try:
            move = np.linalg.solve(jac, res[..., None])[..., 0]
        except np.linalg.LinAlgError:  # det is 0 exactly where the LU meets a zero pivot
            with np.errstate(divide="ignore"):  # det's log of a zero pivot
                singular = np.linalg.det(jac) == 0.0
            move = np.zeros_like(res)
            move[~singular] = np.linalg.solve(jac[~singular], res[~singular, :, None])[..., 0]
            move[singular] = (np.linalg.pinv(jac[singular]) @ res[singular, :, None])[..., 0]
        failed |= bad | ~np.isfinite(move).all(axis=1)
        move[failed] = 0.0
        w = w - move[:, :m]
        mu = mu - move[:, m]
        c = c - move[:, m + 1]
    return w, c, failed


def _polish(rhos, verts, vdual, w, bounds):
    """Newton-polished weights for the states of a plain solve whose bracket
    is open, kept only where they certify.

    Each state's support is S = {w_i > _SUPPORT_CUT}. Its residual is first
    assumed to have a 1-d kernel, then, where that fails, none
    (:func:`_newton`). Polished weights pass only if they are feasible
    (w >= -1e-12, then clipped and renormalised), their upper bound is no
    higher than `bounds`' and the bracket closes to `TOL` against
    :func:`_dual_bound` at X, with c clipped to [-1/2, 1/2]: that X lies in
    the ball, so an accepted bracket is sound whatever the Newton steps did.
    Returns (accepted, weights, bounds) for the accepted states.
    """
    n, m = w.shape
    accepted = np.zeros(n, dtype=bool)
    w_out, b_out = np.zeros((n, m)), np.zeros((n, 2))
    support = w > _SUPPORT_CUT
    start = np.where(support, w, 0.0)
    start /= start.sum(axis=1, keepdims=True)
    for kernel in (True, False):
        todo = np.flatnonzero(~accepted)
        if len(todo) == 0:
            break
        wp, c, failed = _newton(rhos[todo], verts, start[todo], support[todo], kernel)
        total = np.maximum(wp, 0.0).sum(axis=1)  # a clipped row summing to 0 cannot be renormalised
        keep = ~failed & (wp.min(axis=1) >= -1e-12) & (total > 0.0) & (total < np.inf)
        todo, wp, c = todo[keep], np.maximum(wp[keep], 0.0), c[keep]
        if len(todo) == 0:
            continue
        wp /= wp.sum(axis=1, keepdims=True)
        lam, u = np.linalg.eigh(rhos[todo] - (wp @ verts.reshape(m, -1)).reshape(-1, *rhos.shape[1:]))
        upper = 0.5 * np.abs(lam).sum(axis=1)
        g = 0.5 * np.sign(lam)
        if kernel:
            g[np.arange(len(todo)), np.argmin(np.abs(lam), axis=1)] = np.clip(c, -0.5, 0.5)
        lower = np.maximum(_dual_bound(rhos[todo], u, g, vdual), bounds[todo, 0])
        ok = (upper <= bounds[todo, 1]) & (upper - lower <= TOL)
        accepted[todo[ok]] = True
        w_out[todo[ok]], b_out[todo[ok]] = wp[ok], np.stack([lower[ok], upper[ok]], axis=1)
    return accepted, w_out[accepted], b_out[accepted]


def _admm(rhos, vertices, decisive):
    """The solver of :func:`solve_decided` for one problem, as a generator.

    After each bracket update it yields the (n, 2) [lower, upper] array,
    which it keeps updating in place, and accepts an optional boolean mask
    over the states: the states the caller has decided stop there, without
    being certified. It returns (bounds, weights, iterations, certified).

    The brackets are updated every 10 sweeps and at `MAX_ITER`. A
    `decisive` solve, whose caller decides states from their brackets, also
    reads them after sweeps 1 and 2, where most decided states already
    stop. The penalty tau keeps its 10-sweep schedule, so an extra read
    changes only when a state stops, never its iterates; a plain solve
    skips them, since a read costs 1 to 2.4 sweeps on qutrits and a state
    needs tens of sweeps to certify. At each read, and over orthonormal
    vertices before sweep 1, a plain solve also tries :func:`_polish` on
    its open states; a state whose polish is accepted stops there,
    certified, with the polished weights. The active states' iterates stay
    compacted between reads, where the set shrinks and the weights and
    sweep counts are written back.
    """
    rhos = np.ascontiguousarray(rhos, dtype=complex)
    verts = np.asarray(vertices, dtype=complex)
    n, d = rhos.shape[:2]
    m = verts.shape[0]
    vflat = verts.reshape(m, -1)                           # Vw = w @ vflat
    vdual = verts.transpose(0, 2, 1).reshape(m, -1).T      # tr(X v_i) = X.flat @ vdual

    gram = (vflat @ vdual).real  # step 1/L_T = 1: see the module docstring
    w = np.full((n, m), 1.0 / m)
    bounds = np.tile([0.0, np.inf], (n, 1))  # [lower, upper]
    iters = np.zeros(n, dtype=int)
    certified = np.zeros(n, dtype=bool)
    if not decisive and np.array_equal(gram, np.eye(m)):  # polish the Frobenius-nearest weights
        w0 = _project_simplex_batch((rhos.reshape(n, d * d) @ vdual).real)
        certified, w[certified], bounds[certified] = _polish(rhos, verts, vdual, w0, bounds)
    # the active states' weights, dual, penalty and state; delta = rho - Vw
    active = np.flatnonzero(~certified)
    wa, ya, ta, ra = w[active], np.zeros_like(rhos[active]), np.ones((len(active), 1, 1)), rhos[active]
    delta = None

    for sweep in range(1, MAX_ITER + 1):
        if len(active) == 0:
            break
        if delta is None:
            delta = ra - (wa @ vflat).reshape(-1, d, d)
        scaled_y = ya / ta

        # trace-norm block: eigenvalue soft threshold
        lam, u = np.linalg.eigh(delta - scaled_y)
        lam = np.sign(lam) * np.maximum(np.abs(lam) - 0.5 / ta[:, 0], 0.0)
        mat = _RELAX * _from_eigh(u, lam) + (1.0 - _RELAX) * delta

        # weight block: min_w ||mat - rho + Vw + y/tau||_F^2 on the simplex
        b = ((mat - ra + scaled_y).reshape(len(ra), -1) @ vdual).real
        x = z = wa
        for momentum in _MOMENTA:
            x_new = _project_simplex_batch(z - (z @ gram + b))
            step, x = x_new - x, x_new
            if abs(step).max() < 1e-14:
                break
            z = x_new + momentum * step
        wa = x

        delta = ra - (wa @ vflat).reshape(-1, d, d)
        resid = mat - delta
        ya = ya + ta * resid

        cadence = sweep % 10 == 0
        if cadence or sweep == MAX_ITER or (decisive and sweep in _EARLY_BRACKETS):
            w[active], iters[active] = wa, sweep
            lam, u = np.linalg.eigh(delta)
            upper = 0.5 * np.sum(np.abs(lam), axis=1)
            lower = _dual_bound(ra, u, 0.5 * np.sign(lam), vdual)
            lam, u = np.linalg.eigh(-ya)
            lower = np.maximum(lower, _dual_bound(ra, u, np.clip(lam, -0.5, 0.5), vdual))
            lower = np.maximum(lower, bounds[active, 0])
            bounds[active] = np.stack([lower, upper], axis=1)
            if cadence:
                rp = np.abs(resid).max(axis=(1, 2), keepdims=True)
                ta = np.where(rp > 1e-7, ta * 1.5, ta)
            done = upper - lower <= TOL
            if not decisive and not done.all():
                left = np.flatnonzero(~done)
                polished, wp, bp = _polish(ra[left], verts, vdual, wa[left], bounds[active[left]])
                left = left[polished]
                w[active[left]], bounds[active[left]], done[left] = wp, bp, True
            certified[active[done]] = True
            keep = ~done
            decided = yield bounds
            if decided is not None:
                keep &= ~decided[active]
            if not keep.all():
                active, wa, ya, ta, ra, delta = active[keep], wa[keep], ya[keep], ta[keep], ra[keep], None

    return bounds, w, iters, certified


def solve_decided(problems, decide=None):
    """Solve (rhos, vertices) problems in lockstep; each one's result is the
    (bounds, weights, iterations, certified) of :func:`polytope_distance_batch`.

    With a `decide` rule the problems hold the same n states: after every
    bracket update decide(*bounds), given each problem's (n, 2) [lower,
    upper] array, returns a boolean mask of the states whose question is
    answered, and those stop in every problem, uncertified. Such a solve
    also reads its brackets after sweeps 1 and 2 (see `_admm`). States that
    are not an (n, d, d) stack, vertices that are not an (m >= 1, d, d) stack
    of the states' d, and unequal state counts under a rule raise ValueError.
    """
    for rhos, vertices in problems:
        states, shape = np.shape(rhos), np.shape(vertices)
        if len(states) != 3 or states[1] != states[2]:
            raise ValueError(f"states must be an (n, d, d) stack, got shape {states}")
        if len(shape) != 3 or shape[0] == 0 or shape[1] != shape[2]:
            raise ValueError(f"vertices must be an (m >= 1, d, d) stack, got shape {shape}")
        if shape[1] != states[2]:
            raise ValueError(f"dimension mismatch: state {states[2]}, vertices {shape[1]}")
    counts = [len(rhos) for rhos, _ in problems]
    if decide is not None and len(set(counts)) > 1:
        raise ValueError(f"a decide rule needs the same number of states in every problem, got {counts}")
    solvers = [_admm(rhos, vertices, decide is not None) for rhos, vertices in problems]
    bounds = [None] * len(solvers)
    results = [None] * len(solvers)
    decided = None
    while True:
        for k, solver in enumerate(solvers):
            if results[k] is None:
                try:
                    bounds[k] = solver.send(decided)
                except StopIteration as stop:
                    results[k] = stop.value
        if all(r is not None for r in results):
            return results
        if decide is not None:
            decided = decide(*bounds)


def polytope_distance_batch(rhos, vertices):
    """min_w (1/2)||rho - sum_i w_i v_i||_1 over the simplex, for a state stack,
    bracketed by a dual lower bound, by the ADMM solver of the module docstring.
    The lower bound is a running max from 0, and a state's penalty tau grows
    every 10 sweeps while its split residual lags.

    Returns (bounds, weights, iterations, certified): `bounds` is (n, 2) with
    columns [lower, upper], the upper bound evaluated at `weights`, and
    `certified` marks the states whose gap closed to within `TOL` before
    `MAX_ITER`.
    """
    return solve_decided([(rhos, vertices)])[0]


def polytope_distance(rho, vertex_set):
    """Minimum trace distance from rho to the convex hull of a vertex set (or
    of a plain vertex list), with its certified lower bound."""
    rho = validate_density_matrix(rho)
    verts = vertex_set.projectors if isinstance(vertex_set, StabilizerVertexSet) else vertex_set
    bounds, w, iters, certified = polytope_distance_batch(rho[None], verts)
    lower, upper = bounds[0]
    return PolytopeResult(distance=float(upper), lower=float(lower), gap=float(upper - lower),
                          weights=w[0], iterations=int(iters[0]), certified=bool(certified[0]))


def in_polytope(rho):
    """Whether rho lies in the stabilizer polytope of its dimension, decided
    exactly from the facets by :func:`in_polytope_batch` with its default slack."""
    return bool(in_polytope_batch(validate_density_matrix(rho)))


def incoherent_distance(rho):
    """Minimum trace distance to the diagonal (incoherent) states."""
    rho = validate_density_matrix(rho)
    return float(_free_distances(rho[None], magic=False)[0])


def _free_distances(rhos, magic):
    """Distances of a validated (n, d, d) stack to the stabilizer polytope (`magic`)
    or the incoherent states: exact where the module docstring says, else solved."""
    d = rhos.shape[-1]
    if d == 2:
        off = rhos[:, 0, 1]
        if not magic:
            return np.hypot(off.real, off.imag)  # rounds as abs(z); np.abs of an array may not
        # |r| entrywise: the sign flips of the Bloch vector r fix the octahedron
        r = np.abs(np.stack([2 * off.real, 2 * off.imag, (rhos[:, 0, 0] - rhos[:, 1, 1]).real], axis=1))
        outside = r.sum(axis=1) > 1.0
        return np.where(outside, 0.5 * np.linalg.norm(r - _project_simplex_batch(r), axis=1), 0.0)
    verts = stabilizer_pure_states(d).projectors if magic else basis_projectors(d)
    free = in_polytope_batch(rhos, -1e-12) if magic else ~rhos[:, ~np.eye(d, dtype=bool)].any(axis=1)
    out = np.zeros(len(rhos))
    if not free.all():
        out[~free] = polytope_distance_batch(rhos[~free], verts)[0][:, 1]
    return out
