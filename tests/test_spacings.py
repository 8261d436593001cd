import numpy as np
import pytest

from tailwls import (
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    NonFiniteError,
    NonPositiveError,
    covariates,
    validate_and_sort,
    weights,
)
from tailwls.spacings import block_tails


def test_sorts_descending():
    tail = validate_and_sort([3.0, 1.0, 2.0, 5.0])
    assert tail.values.tolist() == [5.0, 3.0, 2.0, 1.0]
    assert tail.n == 4


def test_sort_permutation_invariant():
    rng = np.random.default_rng(101)
    x = rng.pareto(1.5, size=200) + 1.0
    a = validate_and_sort(x)
    b = validate_and_sort(rng.permutation(x))
    assert np.array_equal(a.values, b.values)


def test_sorted_values_are_readonly():
    tail = validate_and_sort([1.0, 2.0])
    with pytest.raises(ValueError):
        tail.values[0] = 99.0


@pytest.mark.parametrize("bad", [[], [1.0]])
def test_too_small_sample(bad):
    with pytest.raises(EmptyOrTinyError):
        validate_and_sort(bad)


def test_nonfinite_reports_index():
    with pytest.raises(NonFiniteError, match="index 2"):
        validate_and_sort([1.0, 2.0, np.nan, 3.0])
    with pytest.raises(NonFiniteError):
        validate_and_sort([1.0, np.inf])


def test_nonpositive_reports_index():
    with pytest.raises(NonPositiveError, match="index 1"):
        validate_and_sort([1.0, 0.0, 2.0])
    with pytest.raises(NonPositiveError):
        validate_and_sort([1.0, -3.0])


def test_log_spacings_hand_value():
    # descending sample (e^2, e, 1): Z_1 = 1*log(e^2/e) = 1, Z_2 = 2*log(e/1) = 2
    tail = validate_and_sort([np.e**2, np.e, 1.0])
    z = tail.z_all
    assert z == pytest.approx([1.0, 2.0], abs=1e-12)
    assert len(z) == 2 and not z.flags.writeable


def test_tie_gives_exact_zero():
    tail = validate_and_sort([5.0, 5.0, 2.0, 1.0])
    z = tail.z_all
    assert z[0] == 0.0
    assert (z >= 0.0).all()


def test_prefix_matches_full_array():
    """Z_j does not depend on k: the top k+1 order statistics alone give z_all[:k]."""
    rng = np.random.default_rng(7)
    tail = validate_and_sort(rng.pareto(1.0, size=60) + 0.5)
    z_all = tail.z_all
    assert z_all.shape == (59,)
    for k in (1, 7, 30, 59):
        assert np.array_equal(validate_and_sort(tail.values[:k + 1]).z_all, z_all[:k])


def test_log_spacings_are_computed_once_per_tail(monkeypatch):
    """A min-variance resolution reuses the spacings its sample already has."""
    from tailwls import RhoMethod, resolve_rho, second_order

    tail = validate_and_sort(np.random.default_rng(9).pareto(1.0, size=200) + 1.0)
    z_all = tail.z_all
    assert not z_all.flags.writeable
    seen = []
    real = second_order._path_fit

    def spy(z, *args, **kwargs):
        seen.append(z)
        return real(z, *args, **kwargs)

    monkeypatch.setattr(second_order, "_path_fit", spy)
    resolve_rho(tail, RhoMethod.min_variance())
    assert len(seen) == 1 and seen[0] is z_all


def test_block_tails_rows_equal_their_own_validate_and_sort():
    """Each row is validated, sorted and spaced as its own 1-D calls would do it."""
    rng = np.random.default_rng(12)
    raw = rng.pareto(1.0, size=(9, 30)) + 1.0
    raw[1, 4] = np.nan
    raw[2, 0] = np.inf
    raw[3, 29] = 0.0
    raw[4, 7] = -2.0
    raw[5, 3:9] = raw[5, 2]  # ties give exact zeros
    raw[6, 11] = -np.inf
    z_all, tails = block_tails(raw)
    assert z_all.shape == (9, 29) and not z_all.flags.writeable
    assert [t is None for t in tails] == [False, True, True, True, True, False, True,
                                          False, False]
    for row, tail, z_row in zip(raw, tails, z_all):
        if tail is None:
            with pytest.raises((NonFiniteError, NonPositiveError)):
                validate_and_sort(row)
            assert np.isnan(z_row).all()
            continue
        want = validate_and_sort(row)
        assert np.array_equal(tail.values, want.values) and tail.n == 30
        assert not tail.values.flags.writeable and tail.values.flags.c_contiguous
        assert np.shares_memory(tail.z_all, z_row)
        assert np.array_equal(tail.z_all, want.z_all)
    assert [t is None for t in block_tails(raw[:, :1])[1]] == [True] * 9  # too few values


def test_scale_invariance():
    rng = np.random.default_rng(8)
    x = rng.pareto(2.0, size=100) + 1.0
    z1 = validate_and_sort(x).z_all
    z2 = validate_and_sort(1e6 * x).z_all
    assert z1 == pytest.approx(z2, abs=1e-9)


def test_weights_hand_values():
    w = weights(3)
    assert w * 1.5 == pytest.approx([0.75, 0.5, 0.25], abs=1e-15)  # W_j = 1 - j/4
    assert w == pytest.approx([1 / 2, 1 / 3, 1 / 6], abs=1e-15)
    assert w.shape == (3,) and not w.flags.writeable


@pytest.mark.parametrize("k", [1, 2, 17, 400])
def test_weight_sums(k):
    w = weights(k)
    raw = w * (k / 2)  # W_j = 1 - j/(k+1)
    assert raw.sum() == pytest.approx(k / 2, abs=1e-10)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (raw > 0).all() and (raw < 1).all()
    # strictly decreasing in j
    assert (np.diff(w) < 0).all()


def test_weights_bad_k():
    with pytest.raises(KOutOfRangeError):
        weights(0)
    with pytest.raises(KOutOfRangeError, match="^k=2.5 must be an integer$"):
        weights(2.5)  # int() made it k = 2
    assert weights(np.int64(3)).tolist() == weights(3).tolist()


def test_covariates_hand_values():
    c = covariates(3, -1.0)
    assert c == pytest.approx([0.25, 0.5, 0.75], abs=1e-15)
    assert not c.flags.writeable
    c2 = covariates(3, -0.5)
    assert c2 == pytest.approx(np.sqrt([0.25, 0.5, 0.75]), abs=1e-15)


@pytest.mark.parametrize("rho", [-0.1, -1.0, -3.7])
def test_covariates_in_unit_interval_increasing(rho):
    c = covariates(50, rho)
    assert (c > 0).all() and (c < 1).all()
    assert (np.diff(c) > 0).all()


@pytest.mark.parametrize("rho", [0.0, 0.5, -np.inf, np.nan])
def test_covariates_bad_rho(rho):
    with pytest.raises(InvalidRhoError):
        covariates(10, rho)


def test_covariates_bad_k():
    with pytest.raises(KOutOfRangeError):
        covariates(0, -1.0)
    with pytest.raises(KOutOfRangeError, match="^k=3.0 must be an integer$"):
        covariates(3.0, -1.0)
