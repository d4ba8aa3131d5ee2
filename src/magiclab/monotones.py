"""Resource quantifiers: magic, coherence and entanglement monotones.

Magic is measured on the discrete Wigner grid (sum negativity and mana),
coherence by l_p norms of the off-diagonal part, by minimum trace distance
to the incoherent states, and by the line-sum functional
:func:`cw_coherence`, computed exactly from the non-vertical striation
marginals by a one-variable closed form. Entanglement is the negativity of
the partial transpose. Sum negativity and l1 coherence have batch kernels
over (..., d, d) stacks, shared by the scalar forms and the experiments.
"""

from dataclasses import dataclass, field

import numpy as np

from . import stabilizer
from .linalg import partial_transpose, trace_norm, validate_density_matrix
from .phasespace import _is_prime, striation_marginals, wigner, wigner_batch


@dataclass(frozen=True)
class MonotoneReport:
    """A named monotone value with optional metadata (C_w's minimizing lambda)."""
    name: str
    value: float
    metadata: dict = field(default_factory=dict)


def sum_negativity(rho):
    """sum_u |W_u| - 1 of the discrete Wigner grid; zero iff the grid is nonnegative."""
    return float(sum_negativity_grid(wigner(rho)))


def sum_negativity_grid(w):
    """Sum negativity straight from a precomputed Wigner grid (or stack of grids)."""
    w = np.asarray(w, dtype=float)
    return np.abs(w).sum(axis=(-2, -1)) - 1.0


def mana(rho, base=None):
    """log(sum_u |W_u|) = log(1 + sum negativity); natural log unless `base` given."""
    total = sum_negativity(rho) + 1.0
    if base is None:
        return float(np.log(total))
    return float(np.log(total) / np.log(base))


def l1_coherence(rho):
    """Sum of absolute off-diagonal entries; zero iff diagonal."""
    return float(l1_coherence_batch(validate_density_matrix(rho)))


def l1_coherence_batch(rhos):
    """l1 coherence of a matrix (d, d) or a stack (..., d, d), without validation."""
    absr = np.abs(rhos)
    return absr.sum(axis=(-2, -1)) - np.einsum("...ii->...", absr)


def lp_coherence(rho, p):
    """(sum_{i != j} |rho_ij|^p)^{1/p} for p >= 1."""
    if p < 1:
        raise ValueError(f"l_p coherence needs p >= 1, got p={p}")
    return _lp_coherence(validate_density_matrix(rho), p)


def _lp_coherence(rho, p):
    off = np.abs(rho - np.diag(np.diag(rho)))
    total = np.sum(off ** p)
    return float(total ** (1.0 / p))


def distance_magic(rho, vertex_set=None):
    """Minimum trace distance to the stabilizer polytope (qutrit by default)."""
    rho = validate_density_matrix(rho)
    if vertex_set is None:
        vertex_set = stabilizer.stabilizer_pure_states(rho.shape[0])
    return stabilizer.polytope_distance(rho, vertex_set).distance


def distance_coherence(rho):
    """Minimum trace distance to the incoherent (diagonal) states."""
    return stabilizer.incoherent_distance(rho)


def _hull_distance(rho, verts):
    """Certified upper bound on the trace distance from a validated rho to a hull."""
    bounds, _, _, _ = stabilizer.polytope_distance_batch(rho[None], verts)
    return float(bounds[0, 1])


def negativity(rho, dims, on=1):
    """Entanglement negativity (||rho^{T_B}||_1 - 1)/2; zero on product states."""
    return _negativity(validate_density_matrix(rho), dims, on)


def _negativity(rho, dims, on=1):
    pt = partial_transpose(rho, dims, on)
    return float(max(0.0, (trace_norm(pt) - 1.0) / 2.0))


# ---------------------------------------------------------------------------
# line-sum coherence monotone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CwResult:
    """The C_w minimum with its minimizing diagonal state and scale lambda."""
    value: float
    sigma: np.ndarray
    lam: float


def cw_coherence(rho, full=False):
    """Coherence from Wigner line sums: min over diagonal sigma and lambda >= 0 of
    ||K_rho - lambda K_sigma||_1, with K the striation marginals over d+1.

    A diagonal sigma has marginals 1/d on every non-vertical line, and its
    vertical term sum_c |rho_cc - lambda sigma_c| >= |1 - lambda| is tight at
    sigma = diag(rho). So over the d^2 non-vertical line sums m_l,

        C_w = min_{lambda >= 0} (|1 - lambda| + sum_l |m_l - lambda/d|) / (d+1),

    convex and piecewise linear in lambda, hence minimal at a breakpoint
    lambda = 1 or d m_l. Returns the value, or a :class:`CwResult` if ``full``.
    """
    rho = validate_density_matrix(rho)
    res = _cw_from_grid(rho, wigner_batch(rho[None], rho.shape[0])[0])
    return res if full else res.value


def _cw_from_grid(rho, w):
    """The C_w closed form from a validated rho and its Wigner grid w."""
    d = rho.shape[0]
    m = striation_marginals(w)[1:].reshape(-1)
    # a line sum rounded below 0 puts its breakpoint at the boundary lambda = 0
    lam = np.maximum(np.append(1.0, d * m), 0.0)
    vals = (np.abs(1.0 - lam) + np.abs(m - lam[:, None] / d).sum(axis=1)) / (d + 1)
    best = int(np.argmin(vals))
    return CwResult(value=float(vals[best]), sigma=rho.diagonal().real.copy(),
                    lam=float(lam[best]))


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
        msn = float(sum_negativity_grid(w))
        out.append(MonotoneReport("sum_negativity", msn))
        out.append(MonotoneReport("mana", float(np.log(msn + 1.0))))
    out.append(MonotoneReport("l1_coherence", float(l1_coherence_batch(rho))))
    out.append(MonotoneReport("l2_coherence", _lp_coherence(rho, 2)))
    if wigner_ok:
        res = _cw_from_grid(rho, w)
        out.append(MonotoneReport("cw_coherence", res.value, {"lambda": res.lam}))
    if d == 3:
        out.append(MonotoneReport("distance_magic",
                                  _hull_distance(rho, stabilizer.stabilizer_pure_states(3).projectors)))
        out.append(MonotoneReport("distance_coherence",
                                  _hull_distance(rho, stabilizer.basis_projectors(3))))
    if dims is not None:
        out.append(MonotoneReport("negativity", _negativity(rho, dims)))
    return out
