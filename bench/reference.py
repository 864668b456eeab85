"""Fixed reference work that calibrates the benchmark to the host's speed.

The benchmark spawns this next to every analysis child. It imports numpy
but nothing from oscidmd, so no change to the program can move its time;
only the host can. Its mix follows the analysis: interpreter start and
imports, an SVD of a matrix larger than the cache (as the Hankel matrix
is), and a Python-level loop over small objects.
"""

import numpy as np

rng = np.random.default_rng(0)
np.linalg.svd(rng.standard_normal((800, 3200)), full_matrices=False)
counts: dict[int, float] = {}
for i in range(300_000):
    counts[i % 997] = counts.get(i % 997, 0.0) + i * 0.5
