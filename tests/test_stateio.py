import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from magiclab import linalg, stateio
from conftest import random_pure, write_state


def test_pure_state_round_trip(tmp_path):
    psi = random_pure(3, seed=70)
    path = tmp_path / "pure.txt"
    write_state(path, psi)
    back = stateio.load_state(path)
    assert back.ndim == 1
    assert np.array_equal(back, psi)


def test_density_matrix_round_trip(tmp_path):
    rho = linalg.random_mixed(3, seed=71)
    path = tmp_path / "dm.txt"
    write_state(path, rho)
    back = stateio.load_state(path)
    assert back.ndim == 2
    assert np.array_equal(back, rho)


def test_comments_and_blank_lines_ignored():
    text = "# a vertex\n\ndim=2\n\n1+0i,0+0i\n"
    psi = stateio.loads_state(text)
    assert np.array_equal(psi, np.array([1, 0], dtype=complex))


def test_accepts_bare_reals_and_negative_imag():
    psi = stateio.loads_state("dim=2\n0.6,-0.8i\n")
    assert np.allclose(psi, [0.6, -0.8j], atol=0)


def test_errors():
    with pytest.raises(ValueError):
        stateio.loads_state("1,0,0\n")            # missing dim line
    with pytest.raises(ValueError):
        stateio.loads_state("dim=3\n1+0i,0+0i\n")  # wrong entry count
    with pytest.raises(ValueError):
        stateio.loads_state("dim=3\n1,0,0\n0,1,0\n")  # neither 1 nor d rows
    with pytest.raises(ValueError):
        stateio.loads_state("dim=2\nx,y\n")        # unparseable entry
    with pytest.raises(ValueError):
        stateio.dumps_state(np.zeros((2, 3)))


@pytest.mark.parametrize("entry", ["nan+0i", "inf+0i", "-inf", "0+nani", "1-infi"])
def test_non_finite_entries_rejected(entry):
    with pytest.raises(ValueError, match="non-finite"):
        stateio.loads_state(f"dim=2\n{entry},0+0i\n")


@pytest.mark.parametrize("text, match", [
    ("dim=3\n1,,0\n", "empty numeric field"),
    ("dim=1\n1\n", "dimension must be >= 2, got 1"),
    ("dim=2\n1,0\n0\n", "row needs 2 entries, got 1"),
    ("dim=3\n1,0\n", "row needs 3 entries, got 2"),
    ("dim=3\n1,0,0\n0,1,0\n", "expected 1 or 3 data lines, got 2"),
    ("dim=two\n1,0\n", "dim line needs an integer, got 'two'"),
    ("dim=2.0\n1,0\n", "dim line needs an integer, got '2.0'"),
    ("dim=\n1,0\n", "dim line needs an integer, got ''"),
], ids=["empty_field", "dim_1", "short_row", "short_pure_row", "line_count", "dim_word", "dim_float",
        "dim_empty"])
def test_malformed_files_name_the_fault(text, match):
    with pytest.raises(ValueError, match=match):
        stateio.loads_state(text)


@pytest.mark.parametrize("state, match", [
    ([np.nan, 1], "non-finite"),
    (np.diag([np.inf, 0.0]), "non-finite"),
    ([1.0], "dimension must be >= 2, got 1"),
    ([[1.0]], "dimension must be >= 2, got 1"),
    ([], "dimension must be >= 2, got 0"),
    (1.0, r"vector or square matrix, got shape \(\)"),
    (np.zeros((2, 3)), r"vector or square matrix, got shape \(2, 3\)"),
    (np.zeros((2, 2, 2)), r"vector or square matrix, got shape \(2, 2, 2\)"),
], ids=["nan", "inf", "d1_vector", "d1_matrix", "empty", "scalar", "non_square", "stack"])
def test_dumps_rejects_what_loads_would(state, match):
    with pytest.raises(ValueError, match=match):
        stateio.dumps_state(state)


def test_dumps_full_precision():
    rho = linalg.random_mixed(3, seed=72)
    assert np.array_equal(stateio.loads_state(stateio.dumps_state(rho)), rho)


@settings(max_examples=100, deadline=None)
@given(d=hst.integers(min_value=2, max_value=5), matrix=hst.booleans(), data=hst.data())
def test_dumps_loads_round_trip_is_exact(d, matrix, data):
    n = d * d if matrix else d
    finite = hst.lists(hst.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    state = np.empty(n, dtype=complex)
    state.real, state.imag = data.draw(finite), data.draw(finite)
    state = state.reshape((d, d) if matrix else (d,))
    back = stateio.loads_state(stateio.dumps_state(state))
    assert back.shape == state.shape
    assert np.array_equal(back, state)
    assert back.tobytes() == state.tobytes()    # signed zeros survive too


@settings(max_examples=200, deadline=None)
@given(shape=hst.lists(hst.integers(min_value=0, max_value=4), max_size=3), data=hst.data())
def test_whatever_dumps_accepts_loads_returns_exactly(shape, data):
    n = int(np.prod(shape))
    entries = hst.lists(hst.floats(), min_size=n, max_size=n)   # nan and inf included
    state = np.empty(n, dtype=complex)
    state.real, state.imag = data.draw(entries), data.draw(entries)
    state = state.reshape(shape)
    try:
        text = stateio.dumps_state(state)
    except ValueError:
        return
    back = stateio.loads_state(text)
    assert back.shape == state.shape
    assert back.tobytes() == state.tobytes()
