"""Reference ground truth: the simulated two-arm oracle the closed form replaced.

Each replicate runs both allocations through `simulate_outcomes` under
common random numbers, averages the final-period outcome over eligible
units, and takes the difference; replicates are averaged.
`tests/test_sim.py` checks `sim.ground_truth_tte` against it.
"""

import numpy as np

from interference_lab.core import AllocationScenario, BipartiteGraph, TreatmentPanel
from interference_lab.sim import DgpParams, simulate_outcomes

from reference_rng import child_seed


def constant_panel(allocation: AllocationScenario, n_units: int, n_periods: int) -> TreatmentPanel:
    """Constant 0/1 assignment panel over the eligible units under `allocation`."""
    fill = 1 if allocation is AllocationScenario.ALL_TREATED else 0
    return TreatmentPanel(np.full((n_units, n_periods), fill, dtype=np.int8), design_tag="fixed")


def simulated_tte(g: BipartiteGraph, p: DgpParams, T: int, seed: int, n_reps: int) -> float:
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    n_elig = int(g.eligible.sum())
    treated = constant_panel(AllocationScenario.ALL_TREATED, n_elig, T)
    control = constant_panel(AllocationScenario.ALL_CONTROL, n_elig, T)
    diffs = np.empty(n_reps)
    for r in range(n_reps):
        rep_seed = child_seed(seed, "truth-rep", r)
        y1 = simulate_outcomes(g, treated, p, rep_seed)
        y0 = simulate_outcomes(g, control, p, rep_seed)
        diffs[r] = float(np.mean(y1.outcomes[:, T] - y0.outcomes[:, T]))
    return float(diffs.mean())
