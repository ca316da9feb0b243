"""Property tests of cmp's moments from power sums: each resample's must match the mean and central moments of
its gathered outcome rows."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from interference_lab.core import ExperimentDataset, OutcomePanel, TreatmentPanel  # noqa: E402
from interference_lab.est_cmp import _count_features, _panel  # noqa: E402

EPS = np.finfo(float).eps


def make_panel(n, T, seed, offset, scale, constant):
    """A random dataset of n units and T + 1 periods at a level offset, with period `constant` (if >= 0) set to
    offset + 0.1."""
    rng = np.random.default_rng(seed)
    y = offset + scale * rng.standard_normal((n, T + 1))
    if constant >= 0:  # 0.1 has no exact binary form, so its mean rounds away from it
        y[:, constant] = offset + 0.1
    assignments = rng.integers(0, 2, size=(n, T)).astype(np.int8)
    return ExperimentDataset(OutcomePanel(y), TreatmentPanel(assignments, design_tag="free"), pre_period_end=0)


def random_panel(draw, n):
    """A random panel of n units and T + 1 <= 6 periods, at a level offset of 0, -3.5 or 1e6, with maybe a
    constant period."""
    T = draw(st.integers(2, 5))
    return make_panel(n, T, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, -3.5, 1e6])),
                      draw(st.sampled_from([1e-3, 1.0, 1e3])), draw(st.integers(-1, T)))


def count_rows(draw, n):
    """Count rows (m, n) that sum to n, zeros included."""
    # A resample of one unit drawn n times has no spread, and its r_2 - r_1^2 can round below 0.
    draw_units = st.one_of(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           st.integers(0, n - 1).map(lambda unit: [unit] * n))
    return np.array([np.bincount(units, minlength=n) for units in draw(st.lists(draw_units, min_size=1, max_size=4))])


@st.composite
def resampled_panels(draw):
    """A random panel, a moment order and count rows."""
    n = draw(st.integers(2, 30))
    return random_panel(draw, n), draw(st.integers(1, 3)), count_rows(draw, n)


def gathered_moments(d, rows, order):
    """Per-period mean and central moments 2..order (T + 1, order) of the outcome rows `rows`, and the
    next-period treated fractions (T,)."""
    y = d.outcomes.outcomes[rows]
    mean = y.mean(axis=0)
    moments = [mean] + [((y - mean) ** k).mean(axis=0) for k in range(2, order + 1)]
    return np.stack(moments, axis=-1), d.treatments.assignments[rows].mean(axis=0)


def assert_moments_close(d, got, want):
    """Moments (..., periods, order) within 1e-12 relative to the period's spread s, plus what rounding a sum of n
    values of the period's level can move: u in the mean, and k s^(k-1) u in the k-th central moment. Even
    central moments are never negative."""
    assert (got[..., 1::2] >= 0).all()
    y = d.outcomes.outcomes
    spread = np.abs(y - y.mean(axis=0)).max(axis=0)
    u = d.n_units * EPS * np.abs(y).max(axis=0)
    for k in range(1, got.shape[-1] + 1):
        scale = spread + u
        tol = 1e-12 * scale**k + k * scale ** (k - 1) * u
        assert (np.abs(got[..., k - 1] - want[..., k - 1]) <= tol).all(), f"moment {k}"


@settings(max_examples=150, deadline=2000)
@given(resampled_panels())
def test_count_weighted_moments_match_the_gathered_rows(case):
    d, order, counts = case
    table, _, _, final = _count_features(_panel(d, order), counts)
    for row in range(len(counts)):
        want, want_p = gathered_moments(d, np.repeat(np.arange(d.n_units), counts[row]), order)
        np.testing.assert_array_equal(table[row, :, order], want_p)
        assert_moments_close(d, np.concatenate([table[row, :, :order], final[row, None]]), want)
