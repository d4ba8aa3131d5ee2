"""Discrete phase space for odd prime dimensions.

Builds the displacement operators D(p,q) = w^{-(2^-1)pq} Z^p X^q (with
2^-1 = (d+1)/2 mod d), the phase-point operators A(p,q) = D A_0 D^dag with
A_0 = (1/d) sum D(p,q), and the Wigner grid

    W[p, q] = tr(rho A(p,q)) / d,

normalized so the grid sums to 1. On qutrits this reproduces, cell by cell,
the closed-form expressions implemented in :func:`qutrit_closed_form`; the
0-based grid index (p, q) corresponds to their 1-based row/column labels.

Striations partition the d x d grid into d parallel lines each; line sums of
the Wigner grid are measurement probabilities and therefore nonnegative.
:func:`striation_marginals` gives every line sum of a grid or a stack at once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import validate_density_matrix

SQRT3 = np.sqrt(3.0)


def _is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n ** 0.5) + 1))


def _require_odd_prime(d):
    if d % 2 == 0:
        raise ValueError(f"construction requires odd dimension, got d={d}")
    if not _is_prime(d):
        raise ValueError(f"construction requires prime dimension, got d={d}")


def shift_matrix(d):
    """X |j> = |j+1 mod d>."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_matrix(d):
    """Z |j> = w^j |j>, w = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def displacement(d, p, q):
    """Displacement operator D(p,q) = w^{-(2^-1)pq} Z^p X^q on Z_d x Z_d."""
    if d % 2 == 0:
        raise ValueError(f"displacement operators need odd d, got {d}")
    p, q = p % d, q % d
    inv2 = (d + 1) // 2
    omega = np.exp(2j * np.pi / d)
    phase = omega ** ((-inv2 * p * q) % d)
    zp = np.linalg.matrix_power(clock_matrix(d), p)
    xq = np.linalg.matrix_power(shift_matrix(d), q)
    return phase * (zp @ xq)


@lru_cache(maxsize=None)
def phase_point_ops(d):
    """All d^2 phase-point operators, as an array of shape (d, d, d, d).

    ``phase_point_ops(d)[p, q]`` is the Hermitian, trace-1 operator A(p,q);
    they sum to d * I. The array is cached per dimension and read-only.
    """
    _require_odd_prime(d)
    disp = np.array([[displacement(d, p, q) for q in range(d)] for p in range(d)])
    ops = disp @ (disp.sum(axis=(0, 1)) / d) @ disp.conj().swapaxes(-1, -2)
    ops.setflags(write=False)
    return ops


def wigner(rho):
    """Discrete Wigner grid W[p, q] = tr(rho A(p,q)) / d; sums to 1.
    The validated one-state form of :func:`wigner_batch`."""
    rho = validate_density_matrix(rho)
    return wigner_batch(rho[None], rho.shape[0])[0]


def wigner_batch(rhos, d):
    """Wigner grids for a stack of density matrices, shape (n, d, d) -> (n, d, d).

    No per-state validation; used by the Monte-Carlo experiments. A one-state
    stack is evaluated as two rows, since einsum rounds differently at n = 1:
    so a state's grid has the same bits alone as in any stack that holds it.
    """
    stack = np.concatenate([rhos, rhos]) if len(rhos) == 1 else rhos
    return np.einsum("nij,pqji->npq", stack, phase_point_ops(d))[:len(rhos)].real / d


def qutrit_closed_form(rho):
    """The nine qutrit Wigner values written directly in density-matrix entries.

    With rho_{12} = l1 + i m1, rho_{13} = l2 + i m2, rho_{23} = l3 + i m3
    (1-based labels), the grid rows are

        row p=0:  (2 l3 + rho_11,           2 l2 + rho_22,           2 l1 + rho_33) / 3
        row p=1:  (-l3 - s m3 + rho_11,    -l2 + s m2 + rho_22,     -l1 - s m1 + rho_33) / 3
        row p=2:  (-l3 + s m3 + rho_11,    -l2 - s m2 + rho_22,     -l1 + s m1 + rho_33) / 3

    with s = sqrt(3). The sum telescopes to tr(rho) = 1. Serves as the
    independent golden path for :func:`wigner` at d = 3.
    """
    rho = validate_density_matrix(rho)
    if rho.shape[0] != 3:
        raise ValueError(f"closed form is for qutrits, got d={rho.shape[0]}")
    l1, m1 = rho[0, 1].real, rho[0, 1].imag
    l2, m2 = rho[0, 2].real, rho[0, 2].imag
    l3, m3 = rho[1, 2].real, rho[1, 2].imag
    r11, r22, r33 = rho[0, 0].real, rho[1, 1].real, rho[2, 2].real
    w = np.array([
        [2 * l3 + r11, 2 * l2 + r22, 2 * l1 + r33],
        [-l3 - SQRT3 * m3 + r11, -l2 + SQRT3 * m2 + r22, -l1 - SQRT3 * m1 + r33],
        [-l3 + SQRT3 * m3 + r11, -l2 - SQRT3 * m2 + r22, -l1 + SQRT3 * m1 + r33],
    ])
    return w / 3.0


@dataclass(frozen=True)
class Striation:
    """One of the d+1 directions of parallel lines partitioning the grid.

    ``lines`` holds d disjoint lines; each line is a tuple of d (p, q) points.
    """
    label: str
    lines: tuple


def striations(d):
    """The d+1 striations for prime d, in fixed order.

    First the vertical striation (lines of constant q), then for each slope
    m in 0..d-1 the lines {p = m q + c mod d}. Line c of the vertical
    striation sums the Wigner grid over p at fixed q = c, which equals the
    diagonal entry rho_cc.
    """
    if not _is_prime(d):
        raise ValueError(f"striations need prime d, got {d}")
    out = [Striation(
        label="vertical",
        lines=tuple(tuple((p, c) for p in range(d)) for c in range(d)),
    )]
    for m in range(d):
        out.append(Striation(
            label=f"slope-{m}",
            lines=tuple(tuple(((m * q + c) % d, q) for q in range(d)) for c in range(d)),
        ))
    return out


@lru_cache(maxsize=None)
def _striation_points(d):
    """(d+1, d, d, 2) index points of every line, in the fixed striation order."""
    return np.array([s.lines for s in striations(d)])


def striation_marginals(w):
    """All line sums of a grid (d, d) or a stack (..., d, d), as (..., d+1, d)
    in the fixed striation order: row k holds the d line sums of
    ``striations(d)[k]``."""
    w = np.asarray(w, dtype=float)
    if w.ndim < 2 or w.shape[-2] != w.shape[-1]:
        raise ValueError(f"grid shape {w.shape} is not a (..., d, d) stack")
    points = _striation_points(w.shape[-1])
    return w[..., points[..., 0], points[..., 1]].sum(axis=-1)
