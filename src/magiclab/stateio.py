"""Plain-text state files.

Format: first line ``dim=<d>``, then either one line of d comma-separated
complex amplitudes (pure state) or d lines of d entries (density matrix),
row-major. Entries read ``a+bi`` with a '.' decimal point, locale
independent, and must be finite. Blank lines and lines starting with '#'
are ignored, so the output of ``stab --list`` parses directly.
"""

import cmath

import numpy as np


def _parse_complex(token):
    token = token.strip().replace(" ", "")
    if not token:
        raise ValueError("empty numeric field")
    # only a trailing i is the imaginary unit, not the i of 'inf'
    s = token[:-1] + "j" if token[-1] in "iI" else token
    try:
        z = complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex entry {token!r}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex entry {token!r}")
    return z


def _fmt_complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}i"


def loads_state(text):
    """Parse state-file text; returns a 1-d array (pure) or 2-d array (dm)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("dim="):
        raise ValueError("state file must start with a 'dim=<d>' line")
    token = lines[0].split("=", 1)[1].strip()
    try:
        d = int(token)
    except ValueError:
        raise ValueError(f"dim line needs an integer, got {token!r}") from None
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    body = lines[1:]
    if len(body) not in (1, d):
        raise ValueError(f"expected 1 or {d} data lines, got {len(body)}")
    rows = []
    for ln in body:
        rows.append([_parse_complex(tok) for tok in ln.split(",")])
        if len(rows[-1]) != d:
            raise ValueError(f"row needs {d} entries, got {len(rows[-1])}")
    state = np.array(rows, dtype=complex)
    return state[0] if len(body) == 1 else state


def load_state(path):
    with open(path) as fh:
        return loads_state(fh.read())


def dumps_state(state):
    """Serialize a pure-state vector or density matrix to state-file text.
    A state that `loads_state` would reject (shape other than (d,) or (d, d),
    d < 2, a non-finite entry) raises ValueError."""
    state = np.asarray(state, dtype=complex)
    if state.ndim not in (1, 2) or state.shape != (state.shape[0],) * state.ndim:
        raise ValueError(f"expected a vector or square matrix, got shape {state.shape}")
    if len(state) < 2:
        raise ValueError(f"dimension must be >= 2, got {len(state)}")
    if not np.isfinite(state).all():
        raise ValueError("non-finite entry in state")
    lines = [f"dim={len(state)}"]
    lines.extend(",".join(_fmt_complex(z) for z in row) for row in np.atleast_2d(state))
    return "\n".join(lines) + "\n"

