"""The bulk seed streams of `interference_lab.rng` against numpy's own SeedSequence → PCG64 (`reference_rng`),
and a guard that no estimate seeds its bootstrap draws one SeedSequence at a time."""

import numpy as np
import pytest

from interference_lab import rng
from interference_lab.core import BootstrapConfig
from interference_lab.est_basic import estimate_basic
from interference_lab.est_cmp import CmpConfig, estimate_tte_cmp
from interference_lab.est_network import estimate_network
from interference_lab.regress import LearnerConfig
from interference_lab.sim import DgpParams, GraphParams, RolloutParams, simulate_experiment

import reference_rng

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EDGE_INTS = [0, 2**32 - 1, 2**32, 2**64 - 1]
seeds = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**64 - 1))
parts = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.text(max_size=6),
    st.sampled_from(["cv-folds", "déal-start", "φ", "種"]),
)


def assert_same_stream(got: np.random.Generator, path):
    want = reference_rng.substream(*path)
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.integers(0, 1000, size=3), want.integers(0, 1000, size=3))
    np.testing.assert_array_equal(got.permutation(9), want.permutation(9))


@st.composite
def path_batches(draw):
    """m paths (seed, *parts) with as many parts each; each part is one value for every path or a column."""
    m = draw(st.one_of(st.sampled_from([0, 1, 257]), st.integers(0, 12)))
    columns = [draw(st.one_of(part_values.map(lambda v: ("scalar", v)),
                              st.lists(part_values, min_size=m, max_size=m).map(lambda c: ("column", c))))
               for part_values in [seeds] + [parts] * draw(st.integers(0, 3))]
    args = [value if kind == "scalar" else np.array(value, dtype=object) for kind, value in columns]
    paths = [tuple(value if kind == "scalar" else value[i] for kind, value in columns) for i in range(m)]
    if all(kind == "scalar" for kind, _ in columns):
        args[0] = np.array([args[0]] * m, dtype=object)
    return args, paths


@settings(max_examples=60, deadline=None)
@given(path_batches())
def test_bulk_streams_match_numpy(batch):
    args, paths = batch
    got = rng.child_seeds(*args)
    assert got.shape == (len(paths),) and got.dtype == np.uint64
    assert got.tolist() == [reference_rng.child_seed(*path) for path in paths]
    streams = rng.substreams(*args)
    assert len(streams) == len(paths)
    for stream, path in zip(streams, paths):
        assert_same_stream(stream, path)


@settings(max_examples=60, deadline=None)
@given(seeds, st.lists(parts, max_size=4))
def test_one_path_matches_numpy(seed, path):
    assert rng.child_seed(seed, *path) == reference_rng.child_seed(seed, *path)
    assert_same_stream(rng.substream(seed, *path), (seed, *path))


def test_batch_mixing_one_and_two_word_seeds():
    # two-word rows first and last, one-word rows between
    seeds = np.array([2**32, 2**32 - 1, 0, 2**64 - 1, 7, 2**40 + 3] * 50 + [2**33], dtype=np.uint64)
    got = rng.child_seeds(seeds, "cv-folds", np.arange(len(seeds)) % 3)
    assert got.tolist() == [reference_rng.child_seed(int(s), "cv-folds", i % 3) for i, s in enumerate(seeds)]
    for i, stream in enumerate(rng.substreams(seeds, "deal-start")):
        assert_same_stream(stream, (int(seeds[i]), "deal-start"))


def test_parts_broadcast_like_numpy_arrays():
    got = rng.child_seeds(-4, [["partition"], ["fit"]], range(5))
    assert got.shape == (2, 5)
    assert got[1, 3] == reference_rng.child_seed(-4, "fit", 3)
    assert [g.bit_generator.state for g in rng.substreams(3, "boot", range(2, 9, 3))] == [
        reference_rng.substream(3, "boot", b).bit_generator.state for b in (2, 5, 8)]


def test_estimates_derive_no_seed_sequence_per_draw(monkeypatch):
    """An estimate with B=200 draws derives its streams in bulk: it builds no numpy SeedSequence at all."""
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    real_default_rng = np.random.default_rng

    def counting_default_rng(*args, **kwargs):
        built.append(args)
        return real_default_rng(*args, **kwargs)

    d = simulate_experiment(GraphParams(n_eligible=60, n_connected=80, avg_degree=2.0), DgpParams(sigma=0.5),
                            RolloutParams((1, 6), (0.3, 0.6)), T=12, seed=4)
    grid = LearnerConfig(lambda_grid=(1e-3, 1.0), cv_folds=3)
    kernel = LearnerConfig(kind="kernel_ridge", lambda_grid=(0.1, 1.0), cv_folds=3)
    boot = BootstrapConfig(200, seed=9)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    estimate_tte_cmp(d, CmpConfig(seed=1), boot)  # cross-validates on every draw
    estimate_tte_cmp(d, CmpConfig(moment_order=1, learner=grid, seed=1), boot)
    estimate_basic(d, grid, boot)
    estimate_basic(d, kernel, boot)
    estimate_network(d, grid, boot, seed=2)
    assert built == []
