"""Tour of the discrete phase space: Wigner grids, line sums, covariance."""

import numpy as np

from magiclab import (dm_from_pure, maximally_coherent_state, maximally_mixed,
                      norrell_state, qutrit_closed_form, strange_state,
                      striation_marginals, striations, wigner)
from magiclab.phasespace import shift_matrix

np.set_printoptions(precision=4, suppress=True)

states = {
    "maximally mixed": maximally_mixed(3),
    "strange (0,1,-1)/sqrt2": dm_from_pure(strange_state()),
    "norrell (-1,2,-1)/sqrt6": dm_from_pure(norrell_state()),
    "maximally coherent": dm_from_pure(maximally_coherent_state()),
}

print("=" * 64)
print("Wigner grids (rows = p, columns = q)")
print("=" * 64)
for name, rho in states.items():
    w = wigner(rho)
    print(f"\n{name}: sum = {w.sum():.6f}, negativity = {np.abs(w).sum() - 1:.6f}")
    print(w)
    # the closed qutrit form is an independent route to the same grid
    assert np.max(np.abs(w - qutrit_closed_form(rho))) < 1e-12

print()
print("=" * 64)
print("Line sums: every striation direction gives a true probability vector")
print("=" * 64)
rho = dm_from_pure(strange_state())
w = wigner(rho)
for s, sums in zip(striations(3), striation_marginals(w)):
    print(f"{s.label:>8}: {sums}")
print("(the vertical direction reproduces the diagonal of rho)")

print()
print("=" * 64)
print("Covariance: conjugating by the shift X rolls the grid along q")
print("=" * 64)
x = shift_matrix(3)
shifted = wigner(x @ rho @ x.conj().T)
print("wigner(X rho X^dag):")
print(shifted)
print("np.roll(wigner(rho), 1, axis=1):")
print(np.roll(w, 1, axis=1))
assert np.allclose(shifted, np.roll(w, 1, axis=1), atol=1e-12)
print("match confirmed")
