"""Quantum channels and the free-operation hierarchy audits.

A channel is a Kraus stack (k, d_out, d_in) with sum_i K_i^dag K_i = I. One
batch path does all channel arithmetic: `_images` gives K_i rho K_i^dag for
Kraus stacks (..., k, d, d), and two samplers draw zero-padded stacks
(n, k_max, d, d) with a Kraus count per trial: incoherent channels from
permutation-supported elements (completeness restored by a diagonal
rescaling, which keeps incoherence), generic CPTP channels by slicing Haar
random isometries. `KrausChannel`, `apply` and `sample_incoherent_channel`
are its validated one-channel forms.

The audits at the bottom run all their trials as array code: magic created
by incoherent operations is bounded by initial coherence, l_p coherence is
monotone under the incoherent stabilizer protocol, l1 is a strong monotone
under selective incoherent measurements, and only the identity fixes every
stabilizer state. Clifford unitaries come from `stabilizer.clifford_group`.

`classify` gives all hierarchy flags of a channel at once from its vertex
images: stabilizer preservation off the polytope's facets, and the rest off
one match of images to vertices (Gross 2006).
`estimate_cm` and the result1 audit solve distances only as far as their
question needs: each state stops once its certified bracket decides the
answer (result1 branches and bounds on the margin of each pair), and every
state that could still change the answer is solved to `stabilizer.TOL`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import monotones, stabilizer
from .linalg import (_complex_normal, ginibre_dm_batch, haar_pure_batch, partial_trace, rng_from,
                     tensor, validate_density_matrix)
from .phasespace import wigner_batch

COMPLETENESS_ATOL = 1e-10
INCOHERENT_ENTRY_TOL = 1e-9
PROB_FLOOR = 1e-12    # selective outcomes at or below this probability are dropped
MONOTONE_TOL = 1e-9   # allowed coherence increase in the lp and selective audits
CW_SLACK = 2e-6       # allowed C_w increase in the contractivity audit
# allowed margin in the result1 audit; it must exceed 2 * stabilizer.TOL, the most
# that the conservative ends of two certified brackets add to a true margin <= 0
RESULT1_TOL = 1e-8


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus matrices, kept as a read-only (k, d_out, d_in) stack."""
    kraus: np.ndarray

    def __post_init__(self):
        ks = np.array(self.kraus, dtype=complex)
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)
        if ks.ndim != 3:
            raise ValueError(f"Kraus matrices must be a (k, d_out, d_in) stack, got shape {ks.shape}")
        if not np.all(np.isfinite(ks)):
            raise ValueError("Kraus matrices have non-finite entries")
        err = np.max(np.abs(np.einsum("kai,kaj->ij", ks.conj(), ks) - np.eye(ks.shape[2])))
        if err > COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated: max |sum K^dag K - I| = {err:.3e}")


def unitary_channel(u):
    """Wrap a unitary as a single-Kraus channel."""
    return KrausChannel(kraus=(np.asarray(u, dtype=complex),))


def identity_channel(d):
    return unitary_channel(np.eye(d))


def dephasing_channel(d):
    """K_i = |i><i|: kills all off-diagonal entries."""
    return KrausChannel(kraus=stabilizer.basis_projectors(d))


def _images(kraus, rhos):
    """K_i rho K_i^dag for Kraus stacks (..., k, d_out, d_in) and states
    (..., d_in, d_in), broadcast over the leading axes: (..., k, d_out, d_out)."""
    return kraus @ rhos[..., None, :, :] @ kraus.conj().swapaxes(-1, -2)


def _summed_images(kraus, rhos):
    """`_images(kraus[:, None], rhos).sum(axis=2)`, (n, m, d_out, d_out), as one
    contraction instead of a small matmul per channel, state and Kraus element;
    equal within rounding, not bit for bit."""
    return np.einsum("nkab,mbc,nkdc->nmad", kraus, rhos, kraus.conj(), optimize=True)


def apply(channel, rho):
    """sum_i K_i rho K_i^dag, for a valid rho of the channel's input dimension."""
    rho = validate_density_matrix(rho)
    d_in = channel.kraus.shape[2]
    if rho.shape[0] != d_in:
        raise ValueError(f"channel expects dimension {d_in}, state has {rho.shape[0]}")
    return _images(channel.kraus, rho).sum(axis=0)


def _incoherent(kraus):
    """At most one entry above INCOHERENT_ENTRY_TOL per column, per matrix of a
    stack (..., d, d); a unitary that passes is a permutation times phases."""
    return np.all((np.abs(kraus) > INCOHERENT_ENTRY_TOL).sum(axis=-2) <= 1, axis=-1)


def is_incoherent(channel):
    """True iff every Kraus matrix passes `_incoherent`."""
    return bool(_incoherent(channel.kraus).all())


def _kraus_counts(n_kraus):
    """Per-trial Kraus counts (an int array, checked >= 1), trials, largest count."""
    counts = np.asarray(n_kraus, dtype=int)
    if np.any(counts < 1):
        raise ValueError(f"need at least one Kraus element, got {counts.min()}")
    return counts, len(counts), int(counts.max(initial=1))


def _incoherent_kraus(n_kraus, d, rng):
    """Random incoherent channels as a zero-padded stack (n, k_max, d, d), trial
    t using its first n_kraus[t] elements. Each element has a random permutation
    support with complex Gaussian amplitudes, right-normalized by the
    (diagonal) inverse square root of sum K^dag K so completeness is exact."""
    counts, n, k_max = _kraus_counts(n_kraus)
    perms = rng.permuted(np.broadcast_to(np.arange(d), (n, k_max, d)), axis=-1)
    amps = _complex_normal(rng, (n, k_max, d))
    amps[np.arange(k_max) >= counts[:, None]] = 0.0
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=1))[:, None, :]  # sum K^dag K is diagonal
    kraus = np.zeros((n, k_max, d, d), dtype=complex)
    np.put_along_axis(kraus, perms[:, :, None, :], amps[:, :, None, :], axis=2)
    return kraus


def _haar_kraus(n_kraus, d, rng):
    """Random CPTP channels as a zero-padded stack (n, k_max, d, d): per trial
    a (k_max*d) x d Ginibre matrix with the rows past n_kraus[t]*d zeroed,
    turned into Kraus blocks by `_isometry_kraus`."""
    counts, n, k_max = _kraus_counts(n_kraus)
    g = _complex_normal(rng, (n, k_max * d, d))
    g[np.arange(k_max * d) >= d * counts[:, None]] = 0.0
    return _isometry_kraus(g, d)


def _isometry_kraus(g, d):
    """Kraus stacks (n, k, d, d) from Ginibre stacks (n, k*d, d): orthonormalize
    the columns by one batched QR, absorbing its phase convention so each
    isometry is exactly Haar, and slice into d x d blocks. Zero rows stay zero."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * (diag / np.abs(diag))[:, None, :]).reshape(len(g), -1, d, d)


def sample_incoherent_channel(d, n_kraus, seed=None):
    """Random incoherent channel with `n_kraus` elements (see `_incoherent_kraus`)."""
    return KrausChannel(kraus=_incoherent_kraus([n_kraus], d, rng_from(seed))[0])


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

def incoherent_clifford_unitaries(d):
    """The monomial (permutation x diagonal phase) Clifford unitaries, as a
    stack (n, d, d) in group order; d in {2, 3}."""
    group = stabilizer.clifford_group(d).unitaries
    return group[_incoherent(group)]


def _is_vertex(images, verts):
    """Whether max |image - vertex| <= stabilizer.VERTEX_TOL over the last two
    axes, per broadcast pair of matrices."""
    return np.max(np.abs(images - verts), axis=(-2, -1)) <= stabilizer.VERTEX_TOL


@dataclass(frozen=True)
class HierarchyFlags:
    """Where one channel sits in the free-operation hierarchy, flag by flag."""
    incoherent: bool
    incoherent_clifford_unitary: bool
    stabilizer_preserving: bool
    genuinely_stabilizer: bool


def classify(channel, vertex_set, seed=0, n_probe=50):
    """Hierarchy flags for a channel, read off its vertex images. It is
    stabilizer preserving iff every image passes `stabilizer.in_polytope_batch`
    (the channel is linear and the polytope is the vertices' hull). From the
    match [i, j], image i is vertex j (`_is_vertex`): genuinely stabilizer iff
    every image is its own vertex, and an incoherent unitary is Clifford iff
    every image is some vertex, since for d in {2, 3} the Clifford group modulo
    phase is exactly the unitaries that permute the stabilizer states (Gross,
    J. Math. Phys. 47, 122107, 2006). `seed` and `n_probe` have no effect."""
    verts = vertex_set.projectors
    d, (d_out, d_in) = verts.shape[-1], channel.kraus.shape[1:]
    if not d_in == d_out == d:
        raise ValueError(f"channel maps {d_in} -> {d_out}, vertices have dimension {d}")
    incoh = is_incoherent(channel)
    images = _images(channel.kraus, verts).sum(axis=1)
    match = _is_vertex(images[:, None], verts)
    clifford = incoh and len(channel.kraus) == 1 and bool(match.any(axis=1).all())
    return HierarchyFlags(incoherent=incoh, incoherent_clifford_unitary=clifford,
                          stabilizer_preserving=bool(stabilizer.in_polytope_batch(images).all()),
                          genuinely_stabilizer=bool(np.diagonal(match).all()))


def estimate_cm(rho, n_trials, seed=None):
    """Certified lower bound on C_m(rho), the supremum of polytope distance
    over incoherent images of rho: the largest dual lower bound over rho and
    its images under `n_trials` sampled incoherent channels (each with a
    uniform Kraus count in 1..d^2). For a qutrit, C_m(rho) lies in [this,
    min(D_inc(rho), 1/2)] (README). Incoherent Clifford images are not
    tried: they permute the vertices, so each has exactly rho's distance.
    An image stops being solved once its upper bound falls below the best
    lower bound so far, since it can no longer raise the maximum.
    """
    if n_trials < 0:
        raise ValueError(f"estimate_cm needs n_trials >= 0, got {n_trials}")
    rho = validate_density_matrix(rho)
    d = rho.shape[0]
    rng = rng_from(seed)
    counts = rng.integers(1, d * d + 1, size=n_trials)
    images = np.concatenate([rho[None], _images(_incoherent_kraus(counts, d, rng), rho).sum(axis=1)])
    problem = (images, stabilizer.stabilizer_pure_states(d).projectors)
    bounds = stabilizer.solve_decided([problem], lambda b: b[:, 1] < np.max(b[:, 0]))[0][0]
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


def _mixed_and_pure(n, d, rng):
    """(n, d, d): ceil(n/2) Hilbert-Schmidt mixed states, then floor(n/2) Haar pure ones."""
    return np.concatenate([ginibre_dm_batch((n + 1) // 2, d, rng), haar_pure_batch(n // 2, d, rng)])


def _incoherent_outcomes(n_trials, rng):
    """The draws of the result1 and selective audits: qutrits rho (n, 3, 3) and
    their outcomes K_i rho K_i^dag (n, 9, 3, 3) under random incoherent
    channels with 1..9 Kraus elements, zero past each channel's count. The
    trials are grouped by count, so that no zero Kraus block is multiplied."""
    rhos = _mixed_and_pure(n_trials, 3, rng)
    counts = rng.integers(1, 10, size=n_trials)
    kraus = _incoherent_kraus(counts, 3, rng)
    outcomes = np.zeros_like(kraus)
    for k in range(1, 10):  # one batch per count, so the calls do not grow with n_trials
        group = np.flatnonzero(counts == k)
        outcomes[group, :k] = _images(kraus[group, :k], rhos[group])
    return rhos, outcomes


def result1_audit(n_trials, seed):
    """Magic after a random incoherent channel vs initial coherence:
    distance_magic(channel(rho)) <= incoherent_distance(rho) + RESULT1_TOL,
    decided on the conservative side of both certified brackets (magic upper
    bound minus coherence lower bound).

    The two distance sets are solved in lockstep and the margins branch and
    bound: pair i has the margin bracket [magic_lo - coh_hi, magic_hi - coh_lo]
    and stops once its upper end is <= RESULT1_TOL (no violation) and below
    the largest lower end over all pairs (so it is not the worst). Every other
    pair is solved to the solver's certified gap, so `violations` is exact and
    the worst margin is fully certified; `undecided` counts the pairs neither
    stopped that way nor certified at the iteration cap. The details also
    give `pruned`, the pairs the branch and bound decided, and `sweeps_p50`
    and `sweeps_max` over the states of both solves.
    """
    _require_trials(n_trials)
    rhos, images = _incoherent_outcomes(n_trials, rng_from(seed))
    images = images.sum(axis=1)  # frees the (n, 9, 3, 3) outcomes before the solve
    pruned = np.zeros(n_trials, dtype=bool)

    def decided(magic, coh):
        upper = magic[:, 1] - coh[:, 0]
        pruned[(upper <= RESULT1_TOL) & (upper < np.max(magic[:, 0] - coh[:, 1]))] = True
        return pruned

    (magic, _, magic_sweeps, magic_ok), (coh, _, coh_sweeps, coh_ok) = stabilizer.solve_decided(
        [(images, stabilizer.stabilizer_pure_states(3).projectors),
         (rhos, stabilizer.basis_projectors(3))], decided)
    margins = magic[:, 1] - coh[:, 0]
    worst = float(np.max(margins))
    sweeps = np.concatenate([magic_sweeps, coh_sweeps])
    return AuditReport(suite="result1", trials=n_trials, passed=worst <= RESULT1_TOL, worst_margin=worst,
                       details={"tolerance": RESULT1_TOL, "violations": int(np.sum(margins > RESULT1_TOL)),
                                "undecided": int(np.sum(~(pruned | magic_ok & coh_ok))),
                                "pruned": int(np.sum(pruned)),
                                "sweeps_p50": float(np.median(sweeps)),
                                "sweeps_max": int(np.max(sweeps))})


def lp_monotonicity_audit(n_trials, seed):
    """l_p monotonicity under the incoherent stabilizer protocol pieces, for
    p in 1, 1.5, 2 and 3.

    Per trial (random qutrit rho, monomial Clifford U, diagonal ancilla sigma),
    with tol = MONOTONE_TOL:
      conjugation leg   C(U rho U^dag)                       <= C(rho) + tol
      tensoring leg     C(rho x sigma)                       <= C(rho) + tol
      partial-trace leg C(Tr_anc[(U x V)(rho x sigma)(...)]) <= C(rho) + tol

    The trace leg is checked on the protocol composition; the bare step
    C(Tr X) <= C(X) is false for p > 1 (a mixed diagonal ancilla scales
    C_lp down by (sum q^p)^{1/p}, and tracing it out restores C(rho)), so
    only p = 1 additionally asserts it on the joint state directly.
    """
    _require_trials(n_trials)
    rng = rng_from(seed)
    monomials = incoherent_clifford_unitaries(3)
    rhos = ginibre_dm_batch(n_trials, 3, rng)
    u_sys, u_anc = monomials[rng.integers(len(monomials), size=(2, n_trials))]
    joint = tensor(rhos, rng.dirichlet(np.ones(3), size=n_trials)[:, :, None] * np.eye(3))
    evolved = _images(tensor(u_sys, u_anc)[:, None], joint)[:, 0]
    traced = partial_trace(evolved, (3, 3), 0)
    legs = {"conjugation": _images(u_sys[:, None], rhos)[:, 0], "tensoring": joint,
            "partial_trace": traced}
    margins = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        base = monotones.lp_coherence_batch(rhos, p)
        for leg, states in legs.items():
            margins[f"{leg}@p={p}"] = np.max(monotones.lp_coherence_batch(states, p) - base)
        if p == 1.0:
            margins[f"plain_trace_p1@p={p}"] = np.max(monotones.l1_coherence_batch(traced)
                                                      - monotones.l1_coherence_batch(evolved))
    worst_leg = max(margins, key=margins.get)
    worst = float(margins[worst_leg])
    return AuditReport(suite="lp", trials=n_trials, passed=worst <= MONOTONE_TOL, worst_margin=worst,
                       details={"tolerance": MONOTONE_TOL, "worst_leg": worst_leg})


def selective_audit(n_trials, seed):
    """Strong monotonicity of l1 under selective incoherent measurement:
    sum_i p_i C_l1(outcome_i) <= C_l1(rho) + MONOTONE_TOL, over the outcomes
    with p_i above PROB_FLOOR. Since l1 is absolutely homogeneous,
    p_i C_l1(outcome_i) = C_l1(K_i rho K_i^dag)."""
    _require_trials(n_trials)
    rhos, outcomes = _incoherent_outcomes(n_trials, rng_from(seed))
    kept = np.einsum("nkii->nk", outcomes).real > PROB_FLOOR
    avg = np.sum(monotones.l1_coherence_batch(outcomes) * kept, axis=1)
    worst = float(np.max(avg - monotones.l1_coherence_batch(rhos)))
    return AuditReport(suite="selective", trials=n_trials, passed=worst <= MONOTONE_TOL,
                       worst_margin=worst, details={"tolerance": MONOTONE_TOL})


def gso_audit(n_trials, seed):
    """No non-identity channel fixes the whole qubit vertex set; plus the
    deterministic core: a matrix diagonal in both the computational and the
    Fourier basis is a multiple of the identity (checked as a rank-1 kernel).

    Its vertex images come from `_summed_images`, whose rounding cannot show
    in a count of fixers; every audit that reports a float computed from
    images keeps `_images`, so that float keeps its bits.
    """
    _require_trials(n_trials)
    rng = rng_from(seed)
    verts = stabilizer.stabilizer_pure_states(2).projectors
    counts = rng.integers(1, 5, size=n_trials)
    kraus = _haar_kraus(counts, 2, rng)
    images = _summed_images(kraus, verts)  # (n, vertex, 2, 2)
    fixes = _is_vertex(images, verts).all(axis=-1)
    # a unitary equal to the identity up to phase fixes everything; skip those
    u = kraus[:, 0]
    trivial = (counts == 1) & (np.max(np.abs(u - u[:, :1, :1] * np.eye(2)), axis=(1, 2)) < 1e-9)
    fixers = int(np.sum(fixes & ~trivial))

    # kernel of a -> offdiag(F diag(a) F^dag) must be exactly span{(1,..,1)}
    f = stabilizer.clifford_generators(2)[2]
    off = np.einsum("ai,bi->iab", f, f.conj())[:, ~np.eye(2, dtype=bool)]  # row i: F|i><i|F^dag
    a_map = np.concatenate([off.real, off.imag], axis=1).T
    svals = np.linalg.svd(a_map, compute_uv=False)
    kernel_dim = int(np.sum(svals < 1e-12)) + a_map.shape[1] - len(svals)
    passed = fixers == 0 and kernel_dim == 1
    return AuditReport(suite="gso", trials=n_trials, passed=passed, worst_margin=float(fixers),
                       details={"non_identity_fixers": fixers, "diag_both_bases_kernel_dim": kernel_dim})


def cw_contractivity_audit(n_trials, seed):
    """C_w does not increase, beyond CW_SLACK, under generic (full-environment)
    CPTP channels.

    Trial t draws a qutrit (mixed for even t, pure for odd t), then the
    27 x 3 Ginibre matrix of its channel, each as real then imaginary
    normals. One normal draw sliced per pair of trials keeps that order, so
    the documented counterexample, which only some streams hit, stays found.
    """
    _require_trials(n_trials)
    z = rng_from(seed).standard_normal(((n_trials + 1) // 2, 348))
    parts = np.split(z, np.cumsum([9, 9, 81, 81, 3, 3, 81]), axis=1)
    g_mixed, iso_even, v, iso_odd = (re + 1j * im for re, im in zip(parts[0::2], parts[1::2]))
    # a pure state v v^dag / |v|^2 is the Ginibre form of the single column v
    g = np.stack([g_mixed.reshape(-1, 3, 3), np.pad(v[:, :, None], ((0, 0), (0, 0), (0, 2)))], axis=1)
    g = g.reshape(-1, 3, 3)[:n_trials]
    rhos = g @ g.conj().swapaxes(1, 2)
    rhos /= np.einsum("nii->n", rhos).real[:, None, None]
    kraus = _isometry_kraus(np.stack([iso_even, iso_odd], axis=1).reshape(-1, 27, 3)[:n_trials], 3)
    before = monotones.cw_coherence_grid(wigner_batch(rhos, 3))
    after = monotones.cw_coherence_grid(wigner_batch(_images(kraus, rhos).sum(axis=1), 3))
    worst = float(np.max(after - before))
    return AuditReport(suite="cw_contractivity", trials=n_trials, passed=worst <= CW_SLACK,
                       worst_margin=worst, details={"slack": CW_SLACK})


AUDIT_SUITES = {
    "result1": result1_audit,
    "lp": lp_monotonicity_audit,
    "selective": selective_audit,
    "gso": gso_audit,
}
