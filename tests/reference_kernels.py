"""The per-period simulator loop, the single-einsum cmp features and `np.unique` row labels that the package
replaced.

Kept as references: `simulate_outcomes`, `est_cmp._count_features` and `core.row_classes` must give the same
bits as these on the inputs of `tests/test_sim.py`, `tests/test_est_cmp.py` and `tests/test_core.py`.
"""

from __future__ import annotations

import math

import numpy as np

from interference_lab.core import BipartiteGraph, OutcomePanel, TreatmentPanel
from interference_lab.rng import substream
from interference_lab.sim import DgpParams


def unique_row_labels(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, number of classes) from `np.unique(rows, axis=0, return_inverse=True)`."""
    uniq, labels = np.unique(rows, axis=0, return_inverse=True)
    return labels.ravel(), len(uniq)


def simulate_outcomes(g: BipartiteGraph, w: TreatmentPanel, p: DgpParams, seed: int) -> OutcomePanel:
    """Every period recomputes both drive terms and reads its noise column of one (edges, T) draw."""
    w_full = g.zero_extend(w.assignments)
    T = w.n_periods
    rg = substream(seed, "outcomes")
    baselines = rg.normal(p.baseline_mean, p.baseline_sd, size=g.n_connected_units)
    noise = rg.normal(0.0, p.sigma, size=(g.n_edges, T)) if p.sigma > 0 else None
    t_idx, c_idx = g.edge_positions()
    eligible_pos = np.flatnonzero(g.eligible)
    neighbors = np.bincount(c_idx, minlength=g.n_connected_units).astype(float)

    def aggregate(y_edge):
        totals = np.bincount(t_idx, weights=g.edge_weight * y_edge, minlength=g.n_treatment_units)
        return totals[eligible_pos]

    b_edge = baselines[c_idx]
    y_edge = b_edge.copy()
    Y = np.empty((eligible_pos.size, T + 1))
    Y[:, 0] = aggregate(y_edge)
    for t in range(1, T + 1):
        w_t = w_full[:, t - 1]
        treated = np.bincount(c_idx, weights=w_t[t_idx], minlength=g.n_connected_units)
        tau = np.divide(treated, neighbors, out=np.zeros_like(treated), where=neighbors > 0)
        y_edge = (1 - p.rho) * b_edge + p.rho * y_edge + p.beta * w_t[t_idx] + p.gamma * tau[c_idx]
        if noise is not None:
            y_edge = y_edge + noise[:, t - 1]
        Y[:, t] = aggregate(y_edge)
    return OutcomePanel(Y)


def count_features(outcomes: np.ndarray, assignments: np.ndarray, moment_order: int, counts: np.ndarray):
    """`_count_features` of the (n, T + 1) outcome and (n, T) assignment panels: one einsum weights the
    ((order + 1) * (T + 1), n) block of the powers (y - ȳ)^k and the treatment rows, zero-padded to T + 1."""
    n, T = assignments.shape
    y = np.ascontiguousarray(outcomes.T)
    period_means = y.mean(axis=1)
    sum_rows = np.zeros((moment_order + 1, T + 1, n))
    np.subtract(y, period_means[:, None], out=sum_rows[0])
    for k in range(1, moment_order):
        np.multiply(sum_rows[k - 1], sum_rows[0], out=sum_rows[k])
    sum_rows[-1, :T] = assignments.T
    sum_rows = sum_rows.reshape(-1, n)

    sums = np.einsum("gn,jn->gj", counts.astype(float), sum_rows) / counts.shape[1]
    sums = sums.reshape(len(sums), moment_order + 1, -1)
    r = sums[:, :-1].swapaxes(1, 2)
    minus_r1 = -r[..., 0]
    moments = np.empty_like(r)
    moments[..., 0] = period_means - minus_r1
    for k in range(2, moment_order + 1):
        central = minus_r1**k
        for j in range(1, k + 1):
            central = central + math.comb(k, j) * r[..., j - 1] * minus_r1 ** (k - j)
        moments[..., k - 1] = np.maximum(central, 0.0) if k % 2 == 0 else central
    means = moments[..., 0]
    table = np.concatenate([moments[:, :-1], sums[:, -1, :-1, None]], axis=-1)
    return table, means[:, 1:], means[:, 0], moments[:, -1]
