"""The benchmark's workloads: CLI invocations with their expected outcomes.

Each workload is a fixed list of `graphham` invocations. A pass runs them
in order; each writes to its own `--out` directory, which the checks read.

* periodic-flow  geodesic and analyze on the two periodic built-ins. The
                 time-dependent reference dominates: every vector-field
                 evaluation re-probes the rates' support, and analyze marches
                 a 62,832-step fundamental matrix. No theta weights, no
                 bridge solver, and only 1,000 sampled paths.
* monte-carlo    simulate on the periodic built-in at the seed of acceptance
                 criterion 9, and on a generated constant chain of 8 nodes.
                 The thinning sampler dominates; the constant chain bypasses
                 the periodic rate closures, so a sampler gain and a rate
                 evaluation gain show separately.
* large-graph    generated sparse graphs: an upwind geodesic, a logmean
                 geodesic whose mean-weight generator is invalid (exit 2),
                 a bridge over symmetric rates, and the brute-force path
                 entropy oracle. The dense O(n^2) edge calculus and artifact
                 encoding dominate; no periodic rates, no large ensemble.

Sizes keep one pass near 8 s on a 2-core machine, so that a run repeats it.
The periodic geodesics step at dt = 0.004 over a full period, a quarter of
the built-in default step count, and the samplers draw 40,000 paths: still
two chunks, so the sampler's chunk pool runs. `toy` shrinks every size for
the benchmark's self-test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

# the CLI's default bridge tolerance and the flow's mass-conservation budget
BRIDGE_TOL = 1e-8
MASS_DEFECT_TOL = 1e-9

NAMES = ("periodic-flow", "monte-carlo", "large-graph")


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple                     # subcommand and flags, without --out
    expect: int = 0                 # exit code
    checks: tuple = ()

    @property
    def command(self) -> str:
        return self.argv[0]


def _read_json(out: Path, name: str):
    with open(out / name) as fh:
        return json.load(fh)


def mass_conserved(out: Path) -> str | None:
    with open(out / "trajectory.csv", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        col = header.index("mass_defect")
        worst = max(abs(float(row[col])) for row in rows)
    if not worst <= MASS_DEFECT_TOL:
        return "mass defect %g above %g" % (worst, MASS_DEFECT_TOL)
    return None


def generator_flagged(out: Path) -> str | None:
    report = _read_json(out, "rates.json")
    if report["valid"] or report["first_invalid_time"] is None:
        return "rates.json does not flag the invalid generator"
    return None


def unit_multiplier(out: Path) -> str | None:
    if not _read_json(out, "report.json")["floquet"]["has_unit_multiplier"]:
        return "Floquet spectrum has no unit multiplier"
    return None


def tv_within_bound(out: Path) -> str | None:
    report = _read_json(out, "report.json")
    if not report["max_tv"] <= report["bound"]:
        return "max TV %g above the bound %g" % (report["max_tv"], report["bound"])
    return None


def bridge_converged(out: Path) -> str | None:
    doc = _read_json(out, "bridge.json")
    if not max(doc["residuals"]) <= BRIDGE_TOL:
        return "bridge residuals %r above %g" % (doc["residuals"], BRIDGE_TOL)
    if "oracle" in doc and not math.isfinite(doc["oracle"]["gap"]):
        return "oracle gap %r is not finite" % doc["oracle"]["gap"]
    return None


def build(name: str, seed: int, config_dir: Path, toy: bool = False) -> list:
    """The workload's invocations; generated configs are saved to config_dir."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "periodic-flow":
        dt = "0.05" if toy else "0.004"
        return [Invocation("geodesic-%s" % b, ("geodesic", "--config", b, "--dt", dt),
                           checks=(mass_conserved,))
                for b in ("two-node-periodic", "three-node-circle")] + \
               [Invocation("analyze-%s" % b, ("analyze", "--config", b),
                           checks=(unit_multiplier,))
                for b in ("two-node-periodic", "three-node-circle")]
    if name == "monte-carlo":
        particles = 2000 if toy else 40000
        chain = inputs.write_config(config_dir, "chain", inputs.chain_config(
            rng, 8, particles, seed=int(rng.integers(2 ** 31))))
        return [
            Invocation("simulate-two-node-periodic",
                       ("simulate", "--config", "two-node-periodic", "--seed", "42",
                        "--particles", str(particles)), checks=(tv_within_bound,)),
            Invocation("simulate-chain", ("simulate", "--config", chain),
                       checks=(tv_within_bound,)),
        ]
    if name == "large-graph":
        n_up, n_log, n_bridge = (12, 8, 6) if toy else (64, 48, 32)
        t1 = 0.05 if toy else 0.5
        upwind = inputs.write_config(config_dir, "upwind", inputs.geodesic_config(
            rng, n_up, "upwind", 2 * t1))
        logmean = inputs.write_config(config_dir, "logmean", inputs.geodesic_config(
            rng, n_log, "logmean", t1))
        bridge = inputs.write_config(config_dir, "bridge", inputs.bridge_config(
            rng, n_bridge))
        return [
            Invocation("geodesic-upwind", ("geodesic", "--config", upwind),
                       checks=(mass_conserved,)),
            Invocation("geodesic-logmean", ("geodesic", "--config", logmean), expect=2,
                       checks=(mass_conserved, generator_flagged)),
            Invocation("bridge-symmetric", ("bridge", "--config", bridge),
                       checks=(bridge_converged,)),
            Invocation("bridge-three-node-oracle",
                       ("bridge", "--config", "three-node-bridge", "--oracle", "12"),
                       checks=(bridge_converged,)),
        ]
    raise ValueError("unknown workload %r" % name)


def configs(invocations: list) -> list:
    """Every --config value the workload resolves, in first-use order."""
    seen = []
    for inv in invocations:
        value = inv.argv[inv.argv.index("--config") + 1]
        if value not in seen:
            seen.append(value)
    return seen
