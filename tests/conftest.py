import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rig_lab import SimpleGraph


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SimpleGraph(10, outer + inner + spokes)


def random_graph(rng: np.random.Generator, n: int, p: float) -> SimpleGraph:
    """Plain independent-edge test graph (only used to feed the checkers)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph(n, edges)
