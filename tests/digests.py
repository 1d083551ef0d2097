"""The CLI's output digests: a manifest of what each run writes.

Each entry is one config under one subcommand: its exit code, the sha256
of its stderr, and the name and sha256 of each artifact it wrote. The runs
are the 7 built-ins under all 4 subcommands and two generated 64-node unit
rings with 2,000 particles each: an upwind `geodesic`, whose paths are
sampled from its recorded generators, and a `simulate` on symmetric rates.
The manifest also records the Python, numpy and graphham versions, since
float formatting and run.json depend on them.

    PYTHONPATH=src python tests/digests.py

rewrites tests/digests.json from the code as it stands;
tests/test_digests.py compares a fresh run with the committed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from graphham.cli import _COMMANDS, _version, main
from graphham.scenarios import BUILTINS

MANIFEST = Path(__file__).with_name("digests.json")


def _ring_configs() -> dict:
    """The two generated rings, by the name their entries carry."""
    n = 64
    x = 2 * math.pi * np.arange(n) / n
    rho = 1.0 + 0.5 * np.sin(x)
    graph = {"nodes": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}
    horizon = {"t0": 0.0, "t1": 0.5, "dt": 1e-3}
    sampler = {"particles": 2000, "seed": 5, "checkpoints": 10}
    initial = {"rho": (rho / rho.sum()).tolist(), "pot": (0.2 * np.cos(x)).tolist()}
    return {
        "ring-64-upwind": ("geodesic", {
            "graph": graph, "hamiltonian": {"variant": "ot_kinetic", "theta": "upwind"},
            "initial": initial, "horizon": horizon, "sampler": sampler}),
        "ring-64-symmetric": ("simulate", {
            "graph": graph, "reference": {"kind": "symmetric", "value": 1.0},
            "initial": {"rho": initial["rho"], "pot": [0.0] * n},
            "horizon": horizon, "sampler": sampler}),
    }


def versions() -> dict:
    return {"graphham": _version(), "numpy": np.__version__,
            "python": platform.python_version()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list, out: Path) -> dict:
    """One in-process CLI run: its exit code, stderr digest and artifact digests.
    The library's log records go to the captured stderr as logging's
    last-resort handler would print them from the command line."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    log = logging.getLogger("graphham")
    log.addHandler(handler)
    propagate, log.propagate = log.propagate, False
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
    finally:
        log.removeHandler(handler)
        log.propagate = propagate
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stderr": _sha256(err.getvalue().encode()),
            "files": {p.name: _sha256(p.read_bytes()) for p in files}}


def run_all() -> dict:
    """The entries of every run, keyed "<config> <command>"."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(name, command, name) for name in sorted(BUILTINS) for command in _COMMANDS]
        for name, (command, config) in _ring_configs().items():
            path = tmp / ("%s.json" % name)
            path.write_text(json.dumps(config))
            runs.append((name, command, str(path)))
        for k, (name, command, source) in enumerate(runs):
            entries["%s %s" % (name, command)] = _run(
                [command, "--config", source], tmp / ("run-%d" % k))
    return entries


def manifest() -> dict:
    return {"versions": versions(), "runs": run_all()}


if __name__ == "__main__":
    doc = manifest()
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("wrote %d runs to %s" % (len(doc["runs"]), MANIFEST), file=sys.stderr)
