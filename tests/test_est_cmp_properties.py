"""Property test of cmp's count-weighted resample moments against the moments of the gathered resample rows."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from interference_lab.core import ExperimentDataset, OutcomePanel, TreatmentPanel  # noqa: E402
from interference_lab.est_cmp import _count_features, _group_features, _panel  # noqa: E402

EPS = np.finfo(float).eps


@st.composite
def resampled_panels(draw):
    """A random panel (n, T + 1), a moment order and count rows (m, n) that sum to n, zeros included."""
    n = draw(st.integers(2, 30))
    T = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, -3.5, 1e6]))
    y = offset + draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal((n, T + 1))
    constant = draw(st.integers(-1, T))
    if constant >= 0:  # 0.1 has no exact binary form, so its mean rounds away from it
        y[:, constant] = offset + 0.1
    assignments = rng.integers(0, 2, size=(n, T)).astype(np.int8)
    d = ExperimentDataset(OutcomePanel(y), TreatmentPanel(assignments, design_tag="free"), pre_period_end=0)
    # A resample of one unit drawn n times has no spread, and its r_2 - r_1^2 can round below 0.
    draw_units = st.one_of(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           st.integers(0, n - 1).map(lambda unit: [unit] * n))
    draws = st.lists(draw_units, min_size=1, max_size=4)
    counts = np.array([np.bincount(units, minlength=n) for units in draw(draws)])
    return d, draw(st.integers(1, 3)), counts


def moments_of(features, order):
    """Per-period moments (m, T + 1, order) and next-period treated fractions (m, T) of `_feature_rows`."""
    table, _, _, final = features
    return np.concatenate([table[..., :order], final[:, None]], axis=1), table[..., order]


@settings(max_examples=150, deadline=2000)
@given(resampled_panels())
def test_count_weighted_moments_match_the_gathered_rows(case):
    d, order, counts = case
    panel = _panel(d, order)
    n = d.n_units
    rows = np.repeat(np.tile(np.arange(n), len(counts)), counts.ravel()).reshape(len(counts), n)
    got, got_p = moments_of(_count_features(panel, counts), order)
    want, want_p = moments_of(_group_features(panel, rows), order)
    np.testing.assert_array_equal(got_p, want_p)
    assert (got[..., 1::2] >= 0).all()  # even central moments
    # 1e-12 relative to the period's spread s, plus what rounding a sum of n values of the period's level
    # can move: u in the mean, and k s^(k-1) u in the k-th central moment.
    y = d.outcomes.outcomes
    spread = np.abs(y - y.mean(axis=0)).max(axis=0)
    u = n * EPS * np.abs(y).max(axis=0)
    for k in range(1, order + 1):
        scale = spread + u
        tol = 1e-12 * scale**k + k * scale ** (k - 1) * u
        assert (np.abs(got[..., k - 1] - want[..., k - 1]) <= tol).all(), f"moment {k}"
