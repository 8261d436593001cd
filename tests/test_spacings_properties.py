"""Property tests of the one spacings builder, ``spacings.block_tails``.

``validate_and_sort`` is its one-row case after the typed checks, and
``OrderedTail.z_all`` holds the spacings it made. The
examples are derandomized and no example database is kept, so a run is
repeatable.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from tailwls import (  # noqa: E402
    NonFiniteError,
    NonPositiveError,
    TailwlsError,
    validate_and_sort,
)
from tailwls.spacings import block_tails  # noqa: E402

SETTINGS = settings(database=None, derandomize=True, deadline=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
samples = arrays(np.float64, st.integers(2, 80), elements=positive)


def _spacings(x: np.ndarray) -> np.ndarray:
    """Z_j = j * log(X_(j) / X_(j+1)) on the descending sort, recomputed with numpy."""
    logs = np.log(np.ascontiguousarray(np.sort(x)[::-1]))
    return np.arange(1, x.size, dtype=np.float64) * (logs[:-1] - logs[1:])


@SETTINGS
@given(samples, st.data())
def test_validate_and_sort_is_permutation_invariant(x, data):
    tail = validate_and_sort(x)
    perm = data.draw(st.permutations(range(x.size)))
    other = validate_and_sort(x[perm])
    assert tail.values.tobytes() == other.values.tobytes()
    assert tail.z_all.tobytes() == other.z_all.tobytes()


@SETTINGS
@given(samples)
def test_spacings_equal_numpy_and_their_block_row(x):
    tail = validate_and_sort(x)
    assert tail.n == x.size and not tail.z_all.flags.writeable
    assert np.array_equal(tail.values, np.sort(x)[::-1])
    assert tail.z_all.tobytes() == _spacings(x).tobytes()
    block, tails = block_tails(np.stack([x[::-1], x]))
    for row, row_tail in zip(block, tails):
        assert row.tobytes() == row_tail.z_all.tobytes() == tail.z_all.tobytes()


bad_values = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]) | st.floats(
    max_value=0.0, allow_nan=False)


@SETTINGS
@given(samples, bad_values, st.data())
def test_an_inserted_bad_value_raises_at_its_first_index(x, bad, data):
    at = sorted(data.draw(st.sets(st.integers(0, x.size), min_size=1, max_size=3)))
    raw = np.insert(x, at, bad)
    first = at[0]  # np.insert puts the value before x[at], so the first is at at[0]
    want = NonPositiveError if np.isfinite(bad) else NonFiniteError  # NaN and inf first
    with pytest.raises(want) as info:
        validate_and_sort(raw)
    assert isinstance(info.value, TailwlsError)
    assert str(info.value).endswith(f"at index {first}")
    assert block_tails(raw[None])[1] == [None]
