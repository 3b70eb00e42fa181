"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from riskcent.graph import Graph


def _sparse_er(n, mean_degree, seed):
    """Sparse Erdos-Renyi graph with n * mean_degree / 2 distinct edges.

    Draws random node pairs and keeps the first distinct ones, so it never
    forms the n(n-1)/2 candidate pairs that ``generate_er`` enumerates.
    """
    rng = np.random.default_rng(seed)
    m = int(round(mean_degree * n / 2))
    pairs = rng.integers(0, n, size=(2 * m, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs.sort(axis=1)
    _, first = np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)
    return Graph(n, pairs[np.sort(first)[:m]])


@pytest.fixture
def sparse_er():
    return _sparse_er
