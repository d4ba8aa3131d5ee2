"""Resource quantifiers: magic, coherence and entanglement monotones.

Magic is measured on the discrete Wigner grid (sum negativity and mana),
coherence by l_p norms of the off-diagonal part, by minimum trace distance
to the incoherent states, and by the line-sum functional
:func:`cw_coherence`, computed exactly from the non-vertical striation
marginals by a one-variable closed form. Entanglement is the negativity of
the partial transpose. Sum negativity, mana, l1 and l_p coherence, C_w and
negativity have batch kernels over (..., d, d) stacks (of Wigner grids for
sum negativity, mana and C_w), shared by the scalar forms, the experiments
and the channel audits.
"""

from dataclasses import dataclass

import numpy as np

from . import stabilizer
from .linalg import partial_transpose, validate_density_matrix
from .phasespace import _is_prime, striation_marginals, wigner, wigner_batch


@dataclass(frozen=True)
class MonotoneReport:
    """A named monotone value."""
    name: str
    value: float


def sum_negativity(rho):
    """sum_u |W_u| - 1 of the Wigner grid, clamped at 0; zero iff the grid is nonnegative."""
    return float(max(0.0, sum_negativity_grid(wigner(rho))))


def sum_negativity_grid(w):
    """Sum negativity from a precomputed Wigner grid (or stack of grids), not
    clamped: a nonnegative grid can read a rounding-level negative value."""
    w = np.asarray(w, dtype=float)
    return np.abs(w).sum(axis=(-2, -1)) - 1.0


def mana(rho, base=None):
    """log(sum_u |W_u|) = log(1 + sum negativity), never negative; natural
    log unless `base` (finite and greater than 1) is given."""
    return float(mana_grid(wigner(rho), base))


def mana_grid(w, base=None):
    """Mana from a precomputed Wigner grid (or stack of grids), its sum negativity clamped at 0."""
    if base is not None and not 1.0 < base < np.inf:
        raise ValueError(f"mana base must be finite and greater than 1, got {base}")
    total = np.maximum(sum_negativity_grid(w), 0.0) + 1.0
    return np.log(total) if base is None else np.log(total) / np.log(base)


def l1_coherence(rho):
    """Sum of absolute off-diagonal entries; zero iff diagonal."""
    return float(l1_coherence_batch(validate_density_matrix(rho)))


def l1_coherence_batch(rhos):
    """l1 coherence of a matrix (d, d) or a stack (..., d, d), without validation."""
    absr = np.abs(rhos)
    return absr.sum(axis=(-2, -1)) - np.einsum("...ii->...", absr)


def lp_coherence(rho, p):
    """(sum_{i != j} |rho_ij|^p)^{1/p} for finite p >= 1."""
    if not 1 <= p < np.inf:
        raise ValueError(f"l_p coherence needs a finite p >= 1, got p={p}")
    return float(lp_coherence_batch(validate_density_matrix(rho), p))


def lp_coherence_batch(rhos, p):
    """l_p coherence of a matrix (d, d) or a stack (..., d, d), without validation."""
    off = np.abs(rhos) * (1.0 - np.eye(np.shape(rhos)[-1]))
    # keepdims keeps one matrix's sum an array: a numpy scalar's ** rounds differently
    total = np.sum(off ** p, axis=(-2, -1), keepdims=True)
    return (total ** (1.0 / p))[..., 0, 0]


def distance_magic(rho):
    """Minimum trace distance to the stabilizer polytope of rho's dimension (2 or 3)."""
    rho = validate_density_matrix(rho)
    return float(stabilizer._free_distances(rho[None], magic=True)[0])


def negativity(rho, dims):
    """Entanglement negativity (||rho^{T_B}||_1 - 1)/2, clamped at 0; zero on
    product states."""
    return float(max(0.0, negativity_batch(validate_density_matrix(rho), dims)))


def negativity_batch(rhos, dims):
    """(||rho^{T_B}||_1 - 1)/2 of a matrix (d, d) or a stack (..., d, d), without
    validation and not clamped. rho^{T_A} is the transpose of rho^{T_B}, so
    either partial transpose gives the same spectrum."""
    eigs = np.linalg.eigvalsh(partial_transpose(rhos, dims, 1))
    return (np.abs(eigs).sum(axis=-1) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# line-sum coherence monotone
# ---------------------------------------------------------------------------

def cw_coherence(rho):
    """Coherence from Wigner line sums: min over diagonal sigma and lambda >= 0 of
    ||K_rho - lambda K_sigma||_1, with K the striation marginals over d+1.

    A diagonal sigma has marginals 1/d on every non-vertical line, and its
    vertical term sum_c |rho_cc - lambda sigma_c| >= |1 - lambda| is tight at
    sigma = diag(rho). So over the d^2 non-vertical line sums m_l,

        C_w = min_{lambda >= 0} (|1 - lambda| + sum_l |m_l - lambda/d|) / (d+1),

    convex and piecewise linear in lambda, hence minimal at a breakpoint
    lambda = 1 or d m_l.
    """
    return float(cw_coherence_grid(wigner(rho)))


def cw_coherence_grid(w):
    """C_w straight from a Wigner grid (d, d) or a stack of grids (..., d, d)."""
    d = np.shape(w)[-1]
    m = striation_marginals(w)[..., 1:, :].reshape(np.shape(w)[:-2] + (d * d,))
    # a line sum rounded below 0 puts its breakpoint at the boundary lambda = 0
    lam = np.maximum(np.concatenate([np.ones(m.shape[:-1] + (1,)), d * m], axis=-1), 0.0)
    # cumsum adds in a fixed order, so a grid's value does not depend on its batch
    line_terms = np.cumsum(np.abs(m[..., None, :] - lam[..., None] / d), axis=-1)[..., -1]
    return ((np.abs(1.0 - lam) + line_terms) / (d + 1)).min(axis=-1)


def all_monotones(rho, dims=None):
    """Every applicable monotone as a fixed-order list of MonotoneReports.

    Wigner-based entries require odd prime dimension; negativity requires
    subsystem dims. Inapplicable entries are skipped. rho is validated once
    and its Wigner grid built once, for all entries.
    """
    rho = validate_density_matrix(rho)
    d = rho.shape[0]
    out = []
    wigner_ok = d % 2 == 1 and _is_prime(d)
    if wigner_ok:
        w = wigner_batch(rho[None], d)[0]
        out.append(MonotoneReport("sum_negativity", float(max(0.0, sum_negativity_grid(w)))))
        out.append(MonotoneReport("mana", float(mana_grid(w))))
    out.append(MonotoneReport("l1_coherence", float(l1_coherence_batch(rho))))
    out.append(MonotoneReport("l2_coherence", float(lp_coherence_batch(rho, 2))))
    if wigner_ok:
        out.append(MonotoneReport("cw_coherence", float(cw_coherence_grid(w))))
    if d == 3:
        for name, magic in (("distance_magic", True), ("distance_coherence", False)):
            out.append(MonotoneReport(name, float(stabilizer._free_distances(rho[None], magic)[0])))
    if dims is not None:
        out.append(MonotoneReport("negativity", float(max(0.0, negativity_batch(rho, dims)))))
    return out
