"""Tests for exponential smoothing estimators."""

import pytest
from hypothesis import given, strategies as st

from repro.estimation import (
    BrownDoubleExponentialSmoothing,
    HoltLinearSmoothing,
    SimpleExponentialSmoothing,
)

values = st.floats(min_value=-1e5, max_value=1e5)


class TestSimple:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing(0.0)
        with pytest.raises(ValueError):
            SimpleExponentialSmoothing(1.0)

    def test_first_observation_initialises(self):
        s = SimpleExponentialSmoothing(0.3)
        assert s.update(10.0) == 10.0

    def test_recursion(self):
        s = SimpleExponentialSmoothing(0.5)
        s.update(10.0)
        assert s.update(20.0) == pytest.approx(15.0)

    def test_flat_forecast(self):
        s = SimpleExponentialSmoothing(0.5)
        s.update(10.0)
        s.update(20.0)
        assert s.forecast(1) == s.forecast(100)

    def test_ready_flag(self):
        s = SimpleExponentialSmoothing(0.5)
        assert not s.ready
        s.update(1.0)
        assert s.ready
        assert s.n_observations == 1

    def test_constant_series_converges(self):
        s = SimpleExponentialSmoothing(0.3)
        for _ in range(50):
            s.update(7.0)
        assert s.level == pytest.approx(7.0)


class TestBrown:
    def test_constant_series_zero_trend(self):
        b = BrownDoubleExponentialSmoothing(0.4)
        for _ in range(100):
            b.update(5.0)
        assert b.level == pytest.approx(5.0)
        assert b.trend == pytest.approx(0.0, abs=1e-9)

    def test_linear_trend_tracked(self):
        """On x_t = 2t, the h-step forecast converges to 2(t + h)."""
        b = BrownDoubleExponentialSmoothing(0.4)
        for t in range(200):
            b.update(2.0 * t)
        last_t = 199
        assert b.forecast(1) == pytest.approx(2.0 * (last_t + 1), rel=0.01)
        assert b.trend == pytest.approx(2.0, rel=0.01)

    def test_forecast_is_linear_in_horizon(self):
        b = BrownDoubleExponentialSmoothing(0.4)
        for t in range(50):
            b.update(float(t))
        f1, f2, f3 = b.forecast(1), b.forecast(2), b.forecast(3)
        assert f2 - f1 == pytest.approx(f3 - f2)

    def test_textbook_recursion(self):
        """Hand-checked S', S'' for alpha=0.5 on [10, 20]."""
        b = BrownDoubleExponentialSmoothing(0.5)
        b.update(10.0)  # s1 = s2 = 10
        b.update(20.0)  # s1 = 15, s2 = 12.5
        assert b.level == pytest.approx(2 * 15 - 12.5)
        assert b.trend == pytest.approx(1.0 * (15 - 12.5))

    def test_no_observations_trend_zero(self):
        assert BrownDoubleExponentialSmoothing(0.4).trend == 0.0


class TestHolt:
    def test_constant_series(self):
        h = HoltLinearSmoothing(0.4, 0.2)
        for _ in range(100):
            h.update(5.0)
        assert h.level == pytest.approx(5.0)
        assert h.trend == pytest.approx(0.0, abs=1e-9)

    def test_linear_trend_tracked(self):
        h = HoltLinearSmoothing(0.4, 0.2)
        for t in range(300):
            h.update(3.0 * t)
        assert h.trend == pytest.approx(3.0, rel=0.02)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            HoltLinearSmoothing(0.5, 0.0)


class TestProperties:
    @given(st.lists(values, min_size=1, max_size=60))
    def test_simple_level_within_data_range(self, xs):
        s = SimpleExponentialSmoothing(0.3)
        for x in xs:
            s.update(x)
        assert min(xs) - 1e-6 <= s.level <= max(xs) + 1e-6

    @given(st.lists(values, min_size=2, max_size=60), st.floats(0.05, 0.95))
    def test_brown_and_holt_agree_on_constants(self, xs, alpha):
        constant = xs[0]
        b = BrownDoubleExponentialSmoothing(alpha)
        for _ in xs:
            b.update(constant)
        assert b.forecast(5) == pytest.approx(constant, rel=1e-6, abs=1e-6)

    @given(st.floats(0.05, 0.95), st.floats(-100, 100), st.floats(-10, 10))
    def test_brown_converges_on_any_line(self, alpha, intercept, slope):
        b = BrownDoubleExponentialSmoothing(alpha)
        for t in range(400):
            b.update(intercept + slope * t)
        expected = intercept + slope * 400
        assert b.forecast(1) == pytest.approx(expected, rel=0.05, abs=0.5)


class TestUpdateContract:
    """Every smoother's single ``update`` absorbs one observation and
    returns the new level; Brown's direct ``forecast`` is bit-identical
    to ``level + horizon * trend``."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SimpleExponentialSmoothing(0.3),
            lambda: BrownDoubleExponentialSmoothing(0.4),
            lambda: HoltLinearSmoothing(0.4, 0.2),
        ],
        ids=["simple", "brown", "holt"],
    )
    @given(series=st.lists(values, min_size=1, max_size=40))
    def test_update_returns_level_and_counts(self, factory, series):
        smoother = factory()
        for n, value in enumerate(series, start=1):
            assert smoother.update(value) == smoother.level
            assert smoother.n_observations == n

    @given(
        series=st.lists(values, max_size=40),
        alpha=st.floats(0.05, 0.95),
        horizon=st.floats(-10, 10),
    )
    def test_brown_forecast_is_level_plus_horizon_trend(self, series, alpha, horizon):
        b = BrownDoubleExponentialSmoothing(alpha)
        for value in series:
            b.update(value)
        assert b.forecast(horizon) == b.level + horizon * b.trend
