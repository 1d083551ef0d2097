"""Hamiltonian flows, entropic bridges, and jump processes on finite graphs.

Import each name from its module (`graphham.hamiltonians`, `graphham.markov`,
...); the package itself exports only `load_config`.
"""

from .scenarios import load_config

__version__ = "0.1.0"
