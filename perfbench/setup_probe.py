"""Prints the seconds a fresh process spends importing magiclab and filling
its first-use cache (the qutrit phase-point operators)."""

from time import perf_counter

t0 = perf_counter()
import magiclab  # noqa: E402
from magiclab.phasespace import phase_point_ops  # noqa: E402

phase_point_ops(3)
print(perf_counter() - t0)
