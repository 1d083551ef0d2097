"""Seeded input configs for the benchmark workloads.

Every generated input is a plain JSON config that `graphham` reads through
`--config`; nothing else about the workload reaches the program. The same
seed gives byte-identical configs. Node counts are fixed per input and only
the edges, weights, densities and potentials vary with the seed, so the
work per invocation, and with it the timing, does not depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Dirichlet concentration of generated densities: large enough that no node
# mass sits near the simplex boundary, where the flows would stop
_CONCENTRATION = 4.0
_POTENTIAL_SIGMA = 0.05


def ring_with_chords(rng: np.random.Generator, n: int) -> list:
    """Edges of a ring on n nodes plus n // 4 distinct random chords, each
    with a weight drawn from [0.5, 1.5]."""
    pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    want = len(pairs) + n // 4
    while len(pairs) < want:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    return [[i, j, float(rng.uniform(0.5, 1.5))] for i, j in sorted(pairs)]


def density(rng: np.random.Generator, n: int) -> list:
    return [float(v) for v in rng.dirichlet(np.full(n, _CONCENTRATION))]


def geodesic_config(rng, n: int, theta: str, t1: float) -> dict:
    """A kinetic flow on a ring-with-chords graph from an interior density
    with small random potentials."""
    return {
        "graph": {"nodes": n, "edges": ring_with_chords(rng, n)},
        "hamiltonian": {"variant": "ot_kinetic", "theta": theta},
        "initial": {"rho": density(rng, n),
                    "pot": [float(v) for v in rng.normal(0.0, _POTENTIAL_SIGMA, n)]},
        "horizon": {"t0": 0.0, "t1": t1, "dt": 1e-3},
    }


def bridge_config(rng, n: int) -> dict:
    """Two interior marginals over unit symmetric rates on a ring-with-chords
    graph."""
    return {
        "graph": {"nodes": n, "edges": ring_with_chords(rng, n)},
        "reference": {"kind": "symmetric", "value": 1.0},
        "marginals": {"rho0": density(rng, n), "rho1": density(rng, n)},
        "horizon": {"t0": 0.0, "t1": 1.0, "dt": 1e-3},
    }


def chain_config(rng, n: int, particles: int, seed: int) -> dict:
    """A constant-rate chain: symmetric rates equal to the edge weights of a
    ring-with-chords graph, sampled over [0, 1]."""
    edges = ring_with_chords(rng, n)
    matrix = np.zeros((n, n))
    for i, j, w in edges:
        matrix[i, j] = matrix[j, i] = w
    np.fill_diagonal(matrix, -matrix.sum(axis=1))
    return {
        "graph": {"nodes": n, "edges": edges},
        "reference": {"kind": "constant", "matrix": matrix.tolist()},
        "initial": {"rho": density(rng, n), "pot": [0.0] * n},
        "horizon": {"t0": 0.0, "t1": 1.0, "dt": 1e-3},
        "sampler": {"particles": particles, "seed": seed, "checkpoints": 10},
    }


def write_config(directory: Path, name: str, config: dict) -> str:
    """Save a config next to the run and return the path to pass as --config."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / ("%s.json" % name)
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return str(path)
