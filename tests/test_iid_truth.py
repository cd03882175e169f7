"""An exact reference for the ground truth: fields of i.i.d. values.

If a field's values are i.i.d. and continuous, every order of a vertex
and its d link neighbours is equally likely.  So the number k of higher
neighbours is uniform on 0..d, and given k the higher set is a uniform
k-subset of the link: each of the 2^d sign patterns has probability
1 / ((d + 1) C(d, k)).  `iid_type_probabilities` sums those over the
patterns of each type, typed by the acceptance oracle, which counts runs
and does not use the classification kernel.  Against it, both the
Monte-Carlo ground truth and the intervals of sampled ensembles are
checked end to end.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cpci.critical import CriticalType, count_types
from cpci.grid import GridTopology, build_link
from cpci.stats import ConfidenceLevel, summarize
from cpci.synth import MomentModel, ground_truth_probabilities, sample_ensemble

from test_acceptance import exact_cell_coverage, oracle_type

TYPES = (CriticalType.MINIMUM, CriticalType.MAXIMUM, CriticalType.SADDLE)


def iid_type_probabilities(topology: GridTopology) -> np.ndarray:
    """(3, n) exact (min, max, saddle) probabilities of every vertex under i.i.d. values."""
    table = np.zeros((3, topology.n))
    for v in range(topology.n):
        link = build_link(topology, topology.coords(v))
        d = len(link.neighbors)
        p = dict.fromkeys(TYPES, Fraction(0))
        for higher in itertools.product((False, True), repeat=d):
            kind = oracle_type(list(higher), link.closed)
            if kind in p:
                p[kind] += Fraction(1, (d + 1) * math.comb(d, sum(higher)))
        table[:, v] = [float(p[kind]) for kind in TYPES]
    return table


def test_closed_forms_at_an_interior_vertex_and_a_corner():
    topology = GridTopology(16, 16)
    p = iid_type_probabilities(topology)
    assert p[:, topology.linear(5, 7)].tolist() == [1 / 7, 1 / 7, 19 / 70]
    assert p[:, topology.linear(15, 0)].tolist() == [1 / 3, 1 / 3, 0.0]


def test_ground_truth_of_an_iid_model_matches_the_exact_probabilities():
    """Every (vertex, type) pair: exact 0 where p = 0, else |z| <= 4.5.

    Over 768 pairs the bound has about a 0.5% chance to fail for a
    correct sampler; the seed is fixed and is not to be changed to pass.
    """
    topology, draws = GridTopology(16, 16), 100_000
    model = MomentModel(topology, np.zeros(topology.n), np.eye(topology.n))
    hat = ground_truth_probabilities(model, draws, seed=0)[:, 0]
    p = iid_type_probabilities(topology)
    impossible = p == 0
    assert impossible.any() and (hat[impossible] == 0).all()
    z = (hat - p)[~impossible] / np.sqrt(p * (1 - p) / draws)[~impossible]
    assert np.abs(z).max() <= 4.5


@pytest.mark.parametrize("m", [9, 49])
def test_interval_coverage_of_sampled_ensembles_matches_the_exact_coverage(m):
    """The paper's claim end to end: intervals of sampled ensembles hold p as often as they should.

    Each of K = 1000 ensembles (seeds 0..999) of the i.i.d. 16x16 model is
    tallied and summarized; its score is the share of the 768 (vertex,
    type) pairs whose 95% interval holds the exact p.  A pair's count is
    Bin(m, p), so the expected score is the mean over pairs of the exact
    coverage at p.  Pairs of one ensemble share values, so the standard
    error is taken over ensembles.  The bound, 4 SE, fails a correct
    pipeline with probability about 6e-5 at each m; the seeds are fixed
    and are not to be changed to pass.
    """
    topology, ensembles, level = GridTopology(16, 16), 1000, ConfidenceLevel(0.95)
    model = MomentModel(topology, np.zeros(topology.n), np.eye(topology.n))
    p = iid_type_probabilities(topology)
    coverage = {q: exact_cell_coverage(q, m, level.alpha) for q in np.unique(p).tolist()}
    expected = np.mean([coverage[q] for q in p.ravel().tolist()])
    scores = []
    for seed in range(ensembles):
        counts = count_types(sample_ensemble(model, m, seed=seed))
        table = summarize(np.stack([counts.c_min, counts.c_max, counts.c_saddle]), m, level)
        scores.append(np.mean((table[:, 1] <= p) & (p <= table[:, 2])))
    se = np.std(scores, ddof=1) / math.sqrt(ensembles)
    assert abs(np.mean(scores) - expected) <= 4 * se, (np.mean(scores), expected, se)
