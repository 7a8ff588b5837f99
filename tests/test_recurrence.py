import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficast.errors import ValidationError
from trafficast.series import _SCAN_BLOCK, first_order_scan, linear_recurrence

import reference
from reference import conjugate_pair, poly_from_roots, real_roots, stable_roots


def impulse_gain(a, n):
    """Sum of |h_k| over the first n terms of the recurrence's impulse response."""
    h = reference.linear_recurrence_loop(np.eye(1, n)[0], list(a))
    return float(np.sum(np.abs(h)))


def with_history(u, a, init):
    """``u`` with the outputs before ``u[0]`` (``init``, most recent last,
    missing ones zero) folded into its first ``len(a)`` inputs, so that the
    recurrence run from zero history continues that history."""
    u = np.array(u, dtype=float)
    lags = [float(v) for v in init][::-1] + [0.0] * (len(a) - len(init))  # lags[j] = y[-1-j]
    for t in range(min(len(a), u.size)):
        u[t] -= sum(c * v for c, v in zip(a[t:], lags))
    return u


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want)))) if len(want) else 1.0
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= tol * scale


class TestLinearRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(
        roots=stable_roots,
        n=st.integers(1, 3000),
        init_len=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_loop(self, roots, n, init_len, seed):
        a = poly_from_roots(roots)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=n)
        init = rng.normal(size=min(init_len, a.size))
        got = linear_recurrence(with_history(u, a, init), a)
        assert_close(got, reference.linear_recurrence_loop(u, a.tolist(), init.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(
        roots=real_roots(1.02, 1.3),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(roots=[1.021484375] * 3, n=533, seed=1)
    def test_near_unit_circle_within_rounding_gain(self, roots, n, seed):
        # Close (and repeated) roots amplify an error by up to the impulse
        # response's l1 norm, but the loop stays far inside that bound: on
        # the pinned triple root it is 2.7e-8 off an exact evaluation.  A
        # scan that squares the companion matrix is 1.5e-3 off there, past
        # the bound, which random draws find only by chance.
        a = poly_from_roots(roots)
        u = np.random.default_rng(seed).normal(size=n)
        want = reference.linear_recurrence_loop(u, a.tolist())
        assert_close(linear_recurrence(u, a), want, tol=1e-12 * impulse_gain(a, n))

    @settings(max_examples=80, deadline=None)
    @given(
        pair=conjugate_pair(1.02, 3.0),
        extra=real_roots(1.3, 6.0, max_size=1),
        n=st.integers(1, 3000),
        init_len=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_complex_poles_match_sequential_loop(self, pair, extra, n, init_len, seed):
        a = poly_from_roots(pair + extra)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=n)
        init = rng.normal(size=init_len)
        want = reference.linear_recurrence_loop(u, a.tolist(), init.tolist())
        got = linear_recurrence(with_history(u, a, init), a)
        assert_close(got, want, tol=1e-12 * impulse_gain(a, n))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4000), x0=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
    def test_random_walk_matches_cumulative_loop(self, n, x0, seed):
        u = np.random.default_rng(seed).normal(size=n)
        got = linear_recurrence(with_history(u, [-1.0], [x0]), [-1.0])
        assert_close(got, reference.linear_recurrence_loop(u, [-1.0], [x0]))

    @pytest.mark.parametrize("c", [1e-3, 0.382, -0.7, 0.9, 0.999999])
    @pytest.mark.parametrize("n", [1, 2, 37, 5000])
    def test_first_order_stop_rule_drops_below_rounding(self, c, n):
        # The early stop leaves out lags worth at most 2**-53 of max |y|;
        # the full scan's extra passes round once more per slot.
        rng = np.random.default_rng(n)
        u = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=n)
        y_prev = float(rng.normal())
        got = linear_recurrence(with_history(u, [-c], [y_prev]), [-c])
        full = reference.first_order_scan(u, c, y_prev)
        assert np.max(np.abs(got - full)) <= 2.0**-52 * np.max(np.abs(full))
        assert_close(got, reference.linear_recurrence_loop(u, [-c], [y_prev]))

    def test_first_order_by_hand(self):
        # y[t] = u[t] + 0.5 y[t-1], with y[-1] = 2 folded into u[0] = 1 + 0.5 * 2
        got = linear_recurrence([2.0, 0.0, 4.0], [-0.5])
        assert got.tolist() == [2.0, 1.0, 4.5]

    def test_init_is_most_recent_last(self):
        # y[t] = u[t] - y[t-2]: y[0] = -y[-2], y[1] = -y[-1]
        got = linear_recurrence(with_history([0.0, 0.0, 0.0], [0.0, 1.0], [3.0, 5.0]), [0.0, 1.0])
        assert got.tolist() == [-3.0, -5.0, 3.0]

    def test_short_init_is_zero_padded(self):
        got = linear_recurrence(with_history([0.0, 0.0], [0.0, 1.0], [5.0]), [0.0, 1.0])
        assert got.tolist() == [0.0, -5.0]

    def test_order_zero_copies_input(self):
        u = np.array([1.0, 2.0])
        got = linear_recurrence(u, [])
        assert got.tolist() == [1.0, 2.0] and got is not u

    def test_zero_coefficients_stop_at_once(self):
        u = np.arange(5.0)
        got = linear_recurrence(u, [0.0, 0.0, 0.0])
        assert got.tolist() == u.tolist()

    def test_empty_input(self):
        assert linear_recurrence(np.empty(0), [0.5]).size == 0

    def test_does_not_modify_input(self):
        u = np.ones(16)
        linear_recurrence(u, [-0.5])
        assert u.tolist() == [1.0] * 16

    def test_repeated_calls_are_bitwise_identical(self):
        u = np.random.default_rng(3).normal(size=10_000)
        for roots in [1.3, -2.0, 4.0], [1.5 * np.exp(0.7j), 1.5 * np.exp(-0.7j)]:
            a = poly_from_roots(roots)
            assert linear_recurrence(u, a).tobytes() == linear_recurrence(u, a).tobytes()

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            linear_recurrence(np.ones((2, 2)), [0.5])

    def test_explosive_recurrence_rejected(self):
        # The scan needs 2**1024, which overflows, for 1500 samples.
        with pytest.raises(ValidationError, match="explosive"):
            linear_recurrence(np.eye(1, 1500)[0] * 2e-300, [-2.0])

    @pytest.mark.parametrize(
        "a", [[np.nan], [0.5, np.nan], [np.inf, 0.1], [0.1, 0.2, np.nan]]
    )
    def test_nan_coefficient_rejected(self, a):
        with pytest.raises(ValidationError, match="explosive"):
            linear_recurrence(np.zeros(10), a)

    def test_growth_that_fits_in_range_is_kept(self):
        got = linear_recurrence(np.eye(1, 100)[0] * 2.0, [-2.0])
        assert got.tolist() == [2.0**k for k in range(1, 101)]


class TestBlockedScan:
    """``first_order_scan`` runs each doubling pass in blocks from the end;
    every bit is that of the whole-array pass."""

    @pytest.mark.parametrize(
        "n", [_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 3 * _SCAN_BLOCK + 7]
    )
    @pytest.mark.parametrize("c", [0.5, -0.9, 0.999999, 0.3 + 0.8j, -0.99j])
    def test_matches_the_unblocked_pass_bitwise(self, n, c):
        rng = np.random.default_rng(n)
        u = rng.normal(size=n)
        if isinstance(c, complex):
            u = u + 1j * rng.normal(size=n)
        got = first_order_scan(u.copy(), c)
        assert got.tobytes() == reference.first_order_scan(u, c, stop=True).tobytes()

    def test_a_pass_longer_than_a_block_reads_only_old_values(self):
        # With c = 1 and no stop, every pass runs: slot t sums u[0..t].
        n = 2 * _SCAN_BLOCK + 3
        got = first_order_scan(np.ones(n), 1.0)
        assert got.tolist() == [float(t + 1) for t in range(n)]
