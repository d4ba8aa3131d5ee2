"""Quantum channels and the free-operation hierarchy audits.

A channel is a list of Kraus matrices with sum_i K_i^dag K_i = I. The
samplers construct valid channels by design: incoherent channels from
permutation-supported Kraus elements (so completeness can be restored by a
diagonal rescaling without breaking incoherence), generic CPTP channels by
slicing a Haar random isometry.

The audit functions at the bottom exercise the hierarchy claims: magic
generated by incoherent operations is bounded by initial coherence, l_p
coherence is monotone under the incoherent stabilizer protocol, l1 is a
strong monotone under selective incoherent measurements, and the only
channel fixing every stabilizer state is the identity.
"""

from dataclasses import dataclass, field

import numpy as np

from . import monotones, stabilizer
from .linalg import partial_trace, rng_from, tensor, validate_density_matrix

COMPLETENESS_ATOL = 1e-10
INCOHERENT_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus matrices; dimensions inferred from their shape."""
    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", ks)
        dim_in = ks[0].shape[1]
        total = sum(k.conj().T @ k for k in ks)
        err = np.max(np.abs(total - np.eye(dim_in)))
        if err > COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated: max |sum K^dag K - I| = {err:.3e}")

    @property
    def dim_in(self):
        return self.kraus[0].shape[1]

    @property
    def dim_out(self):
        return self.kraus[0].shape[0]


def unitary_channel(u):
    """Wrap a unitary as a single-Kraus channel."""
    return KrausChannel(kraus=(np.asarray(u, dtype=complex),))


def identity_channel(d):
    return unitary_channel(np.eye(d))


def dephasing_channel(d):
    """K_i = |i><i|: kills all off-diagonal entries."""
    return KrausChannel(kraus=tuple(np.diag(row).astype(complex) for row in np.eye(d)))


def apply(channel, rho):
    """sum_i K_i rho K_i^dag."""
    rho = validate_density_matrix(rho)
    if rho.shape[0] != channel.dim_in:
        raise ValueError(f"channel expects dimension {channel.dim_in}, state has {rho.shape[0]}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus:
        out += k @ rho @ k.conj().T
    return out


def selective_outcomes(channel, rho, prob_floor=1e-12):
    """[(p_i, K_i rho K_i^dag / p_i)] for outcomes with p_i above the floor."""
    rho = validate_density_matrix(rho)
    out = []
    for k in channel.kraus:
        m = k @ rho @ k.conj().T
        p = np.trace(m).real
        if p > prob_floor:
            out.append((float(p), m / p))
    return out


def is_incoherent(channel, tol=INCOHERENT_ENTRY_TOL):
    """True iff every Kraus matrix has at most one entry above tol per column."""
    for k in channel.kraus:
        if np.any((np.abs(k) > tol).sum(axis=0) > 1):
            return False
    return True


def sample_incoherent_channel(d, n_kraus, seed=None):
    """Random incoherent channel: per Kraus element a random permutation support
    with complex Gaussian amplitudes, right-normalized by the (diagonal)
    inverse square root of sum K^dag K so completeness is exact.
    """
    if n_kraus < 1:
        raise ValueError(f"need at least one Kraus element, got {n_kraus}")
    rng = rng_from(seed)
    for _ in range(100):
        ks = []
        for _ in range(n_kraus):
            perm = rng.permutation(d)
            amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            k = np.zeros((d, d), dtype=complex)
            k[perm, np.arange(d)] = amps
            ks.append(k)
        diag = sum(np.abs(k) ** 2 for k in ks).sum(axis=0)  # sum K^dag K is diagonal
        if np.min(diag) > 1e-12:
            scale = 1.0 / np.sqrt(diag)
            return KrausChannel(kraus=tuple(k * scale[None, :] for k in ks))
    raise RuntimeError("could not draw a normalizable incoherent channel")


def sample_channel(d, n_kraus, seed=None):
    """Random CPTP channel from a Haar isometry: stack a (n_kraus*d) x d Ginibre
    matrix, orthonormalize its columns, slice into Kraus blocks.

    n_kraus = d*d is the full-environment (generic) ensemble; n_kraus = 1
    gives Haar random unitaries.
    """
    if n_kraus < 1:
        raise ValueError(f"need at least one Kraus element, got {n_kraus}")
    rng = rng_from(seed)
    g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, r = np.linalg.qr(g)
    # absorb the QR phase convention so the isometry is exactly Haar
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
    return KrausChannel(kraus=tuple(q[i * d:(i + 1) * d, :] for i in range(n_kraus)))


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def _is_monomial(u, tol=INCOHERENT_ENTRY_TOL):
    """Exactly one significant entry per column and per row (permutation x phases)."""
    mask = np.abs(u) > tol
    return bool(np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1))


def _phase_key(u, decimals=8):
    """Hashable canonical form of a unitary modulo global phase."""
    flat = u.reshape(-1)
    idx = np.argmax(np.abs(flat) > 1e-9)
    v = u * np.exp(-1j * np.angle(flat[idx]))
    parts = np.round(np.stack([v.real, v.imag]), decimals) + 0.0  # +0.0 folds -0.0
    return parts.tobytes()


def clifford_group(d, word_cap=8):
    """All single-qudit Clifford unitaries modulo global phase, by BFS over
    generator words up to `word_cap` letters. Saturation (an empty last round)
    is required; d in {2, 3} keeps the group small (24 and 216 elements).
    """
    gens = stabilizer.clifford_generators(d)
    seen = {_phase_key(np.eye(d, dtype=complex)): np.eye(d, dtype=complex)}
    frontier = [np.eye(d, dtype=complex)]
    saturated = False
    for _ in range(word_cap):
        nxt = []
        for u in frontier:
            for g in gens:
                cand = g @ u
                key = _phase_key(cand)
                if key not in seen:
                    seen[key] = cand
                    nxt.append(cand)
        if not nxt:
            saturated = True
            break
        frontier = nxt
    if not saturated and frontier:
        raise RuntimeError(f"Clifford BFS not saturated within {word_cap} letters for d={d}")
    return list(seen.values())


def incoherent_clifford_unitaries(d, word_cap=8):
    """The monomial (permutation x diagonal phase) Clifford unitaries."""
    if d not in (2, 3):
        raise ValueError(f"enumeration supports d in {{2, 3}}, got {d}")
    return [u for u in clifford_group(d, word_cap) if _is_monomial(u)]


def is_genuinely_stabilizer(channel, vertex_set, tol=1e-7):
    """True iff the channel fixes every pure stabilizer projector within tol."""
    for v in vertex_set.projectors:
        if np.max(np.abs(apply(channel, v) - v)) > tol:
            return False
    return True


@dataclass(frozen=True)
class HierarchyFlags:
    """Classifier facets of one channel against the free-operation hierarchy."""
    incoherent: bool
    incoherent_clifford_unitary: bool
    stabilizer_preserving: bool  # sampled audit, not a proof
    genuinely_stabilizer: bool


def classify(channel, vertex_set, seed=0, n_probe=50, tol=1e-7):
    """Hierarchy flags for a channel; stabilizer preservation is probed on
    `n_probe` random mixtures of polytope vertices, solved as one batch: the
    channel is preserving iff every probe image is within tol of the polytope."""
    verts = vertex_set.projectors
    if not channel.dim_in == channel.dim_out == vertex_set.dim:
        raise ValueError(f"channel maps {channel.dim_in} -> {channel.dim_out}, "
                         f"vertices have dimension {vertex_set.dim}")
    rng = rng_from(seed)
    incoh = is_incoherent(channel)
    mono = len(channel.kraus) == 1 and _is_monomial(channel.kraus[0])
    probes = np.einsum("nm,mij->nij", rng.dirichlet(np.ones(len(verts)), size=n_probe), verts)
    kraus = np.stack(channel.kraus)
    images = np.einsum("kab,nbc,kdc->nad", kraus, probes, kraus.conj())
    bounds, _, _, _ = stabilizer.polytope_distance_batch(images, verts)
    preserving = bool(np.all(bounds[:, 1] <= tol))
    gso = is_genuinely_stabilizer(channel, vertex_set, tol)
    return HierarchyFlags(incoherent=incoh, incoherent_clifford_unitary=incoh and mono,
                          stabilizer_preserving=preserving, genuinely_stabilizer=gso)


def estimate_cm(rho, n_trials, seed=None, n_kraus=None):
    """Certified lower bound on the supremum of polytope distance over
    incoherent images of rho: the largest dual lower bound over the identity,
    the incoherent Clifford unitaries and `n_trials` sampled incoherent
    channels.
    """
    rho = validate_density_matrix(rho)
    d = rho.shape[0]
    rng = rng_from(seed)
    images = [rho]
    for u in incoherent_clifford_unitaries(d):
        images.append(u @ rho @ u.conj().T)
    for _ in range(n_trials):
        nk = n_kraus if n_kraus is not None else int(rng.integers(1, d * d + 1))
        images.append(apply(sample_incoherent_channel(d, nk, rng), rho))
    verts = stabilizer.stabilizer_pure_states(d).projectors
    bounds, _, _, _ = stabilizer.polytope_distance_batch(np.stack(images), verts)
    return float(np.max(bounds[:, 0]))


# ---------------------------------------------------------------------------
# hierarchy audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of one randomized hierarchy audit."""
    suite: str
    trials: int
    passed: bool
    worst_margin: float  # most adverse (largest) violation margin observed
    details: dict = field(default_factory=dict)

    def lines(self):
        yield f"suite={self.suite}"
        yield f"trials={self.trials}"
        yield f"passed={self.passed}"
        yield f"worst_margin={self.worst_margin:.6e}"
        for key, val in self.details.items():
            yield f"{key}={val}"


def _require_trials(n_trials):
    if n_trials < 1:
        raise ValueError(f"an audit needs at least one trial, got {n_trials}")


def result1_audit(n_trials=10000, seed=0, tol=1e-8):
    """Magic after a random incoherent channel vs initial coherence:
    distance_magic(channel(rho)) <= distance_coherence(rho) + tol, decided on
    the conservative side of both certified brackets (magic upper bound minus
    coherence lower bound).
    """
    from .linalg import random_mixed, random_pure
    from .linalg import dm_from_pure
    _require_trials(n_trials)
    rng = rng_from(seed)
    states, images = [], []
    for i in range(n_trials):
        rho = dm_from_pure(random_pure(3, rng)) if i % 2 else random_mixed(3, seed=rng)
        lam = sample_incoherent_channel(3, int(rng.integers(1, 10)), rng)
        states.append(rho)
        images.append(apply(lam, rho))
    verts = stabilizer.stabilizer_pure_states(3).projectors
    basis = stabilizer.basis_projectors(3)
    magic, _, _, magic_ok = stabilizer.polytope_distance_batch(np.stack(images), verts)
    coh, _, _, coh_ok = stabilizer.polytope_distance_batch(np.stack(states), basis)
    margins = magic[:, 1] - coh[:, 0]
    worst = float(np.max(margins))
    return AuditReport(suite="result1", trials=n_trials, passed=worst <= tol, worst_margin=worst,
                       details={"tolerance": tol, "violations": int(np.sum(margins > tol)),
                                "uncertified": int(np.sum(~(magic_ok & coh_ok)))})


def lp_monotonicity_audit(n_trials=1000, seed=0, tol=1e-9, ps=(1.0, 1.5, 2.0, 3.0)):
    """l_p monotonicity under the incoherent stabilizer protocol pieces.

    Per trial (random qutrit rho, monomial Clifford U, diagonal ancilla sigma):
      conjugation leg   C(U rho U^dag)                       <= C(rho) + tol
      tensoring leg     C(rho x sigma)                       <= C(rho) + tol
      partial-trace leg C(Tr_anc[(U x V)(rho x sigma)(...)]) <= C(rho) + tol

    The trace leg is checked on the protocol composition; the bare step
    C(Tr X) <= C(X) is false for p > 1 (a mixed diagonal ancilla scales
    C_lp down by (sum q^p)^{1/p}, and tracing it out restores C(rho)), so
    only p = 1 additionally asserts it on the joint state directly.
    """
    from .linalg import random_diagonal_state, random_mixed
    _require_trials(n_trials)
    rng = rng_from(seed)
    monomials = incoherent_clifford_unitaries(3)
    worst = -np.inf
    worst_leg = ""
    for _ in range(n_trials):
        rho = random_mixed(3, seed=rng)
        u_sys = monomials[rng.integers(len(monomials))]
        u_anc = monomials[rng.integers(len(monomials))]
        sigma = random_diagonal_state(3, rng)
        joint = tensor(rho, sigma)
        u_joint = np.kron(u_sys, u_anc)
        evolved = u_joint @ joint @ u_joint.conj().T
        traced = partial_trace(evolved, (3, 3), 0)
        for p in ps:
            base = monotones.lp_coherence(rho, p)
            legs = {
                "conjugation": monotones.lp_coherence(u_sys @ rho @ u_sys.conj().T, p) - base,
                "tensoring": monotones.lp_coherence(joint, p) - base,
                "partial_trace": monotones.lp_coherence(traced, p) - base,
            }
            if p == 1.0:
                legs["plain_trace_p1"] = (monotones.l1_coherence(partial_trace(evolved, (3, 3), 0))
                                          - monotones.l1_coherence(evolved))
            for leg, margin in legs.items():
                if margin > worst:
                    worst, worst_leg = margin, f"{leg}@p={p}"
    return AuditReport(suite="lp", trials=n_trials, passed=worst <= tol, worst_margin=float(worst),
                       details={"tolerance": tol, "worst_leg": worst_leg})


def selective_audit(n_trials=1000, seed=0, tol=1e-9):
    """Strong monotonicity of l1 under selective incoherent measurement:
    sum_i p_i C_l1(outcome_i) <= C_l1(rho) + tol."""
    from .linalg import dm_from_pure, random_mixed, random_pure
    _require_trials(n_trials)
    rng = rng_from(seed)
    worst = -np.inf
    for i in range(n_trials):
        rho = dm_from_pure(random_pure(3, rng)) if i % 2 else random_mixed(3, seed=rng)
        lam = sample_incoherent_channel(3, int(rng.integers(1, 10)), rng)
        avg = sum(p * monotones.l1_coherence(s) for p, s in selective_outcomes(lam, rho))
        worst = max(worst, avg - monotones.l1_coherence(rho))
    return AuditReport(suite="selective", trials=n_trials, passed=worst <= tol,
                       worst_margin=float(worst), details={"tolerance": tol})


def gso_audit(n_trials=10000, seed=0, tol=1e-7):
    """No non-identity channel fixes the whole qubit vertex set; plus the
    deterministic core: a matrix diagonal in both the computational and the
    Fourier basis is a multiple of the identity (checked as a rank-1 kernel).
    """
    _require_trials(n_trials)
    rng = rng_from(seed)
    verts = stabilizer.stabilizer_pure_states(2)
    fixers = 0
    for _ in range(n_trials):
        ch = sample_channel(2, int(rng.integers(1, 5)), rng)
        if len(ch.kraus) == 1 and np.max(np.abs(ch.kraus[0] @ ch.kraus[0].conj().T - np.eye(2))) < 1e-9:
            # unitary; identity up to phase fixes everything, skip those
            u = ch.kraus[0]
            if np.max(np.abs(u / u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] - np.eye(2))) < 1e-9:
                continue
        if is_genuinely_stabilizer(ch, verts, tol):
            fixers += 1

    # kernel of a -> offdiag(F diag(a) F^dag) must be exactly span{(1,..,1)}
    d = 2
    f = stabilizer.clifford_generators(d)[2]
    rows = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        m = f @ np.diag(e) @ f.conj().T
        off = m[~np.eye(d, dtype=bool)]
        rows.append(np.concatenate([off.real, off.imag]))
    a_map = np.array(rows).T
    svals = np.linalg.svd(a_map, compute_uv=False)
    kernel_dim = int(np.sum(svals < 1e-12)) + a_map.shape[1] - len(svals)
    scalar_only = kernel_dim == 1
    passed = fixers == 0 and scalar_only
    return AuditReport(suite="gso", trials=n_trials, passed=passed, worst_margin=float(fixers),
                       details={"non_identity_fixers": fixers, "diag_both_bases_kernel_dim": kernel_dim})


def cw_contractivity_audit(n_trials=200, seed=0, slack=2e-6):
    """C_w does not increase under generic (full-environment) CPTP channels."""
    from .linalg import dm_from_pure, random_mixed, random_pure
    rng = rng_from(seed)
    worst = -np.inf
    for i in range(n_trials):
        rho = dm_from_pure(random_pure(3, rng)) if i % 2 else random_mixed(3, seed=rng)
        ch = sample_channel(3, 9, rng)
        before = monotones.cw_coherence(rho)
        after = monotones.cw_coherence(apply(ch, rho))
        worst = max(worst, after - before)
    return AuditReport(suite="cw_contractivity", trials=n_trials, passed=worst <= slack,
                       worst_margin=float(worst), details={"slack": slack})


AUDIT_SUITES = {
    "result1": result1_audit,
    "lp": lp_monotonicity_audit,
    "selective": selective_audit,
    "gso": gso_audit,
}
