"""Per-layer metrics derived from the spans of one traced pass.

A `.s` metric is self time: span durations minus the part their child spans
cover, summed over the layer's spans. Counts come from the spans' work
fields, which the tracer takes from each call's arguments. The layers are
graphham's modules; `errors` does no runtime work and has none.
"""

from __future__ import annotations

import numpy as np

# rows of the sampler's rate-bound grid scan, its `grid_points` default;
# the CLI never overrides it
SAMPLER_GRID_ROWS = 1000

_NS = 1e-9


class _Spans:
    def __init__(self, spans: dict, names: list):
        self.spans = spans
        self.ids = {name: i for i, name in enumerate(names)}
        parents = spans["parents"]
        self.parent_names = np.where(parents >= 0, spans["names"][np.maximum(parents, 0)], -1)

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        m = self.spans["names"] == self.ids.get(name, -2)
        if parent is not None:
            m &= self.parent_names == self.ids.get(parent, -2)
        return m

    def calls(self, name, parent=None) -> float:
        return float(self.mask(name, parent).sum())

    def work(self, name, parent=None) -> float:
        return float(self.spans["work"][self.mask(name, parent)].sum())

    def self_s(self, *names) -> float:
        return float(sum(int(self.spans["self_ns"][self.mask(n)].sum()) for n in names) * _NS)

    def wall_s(self, name) -> float:
        m = self.mask(name)
        return float(int((self.spans["ends"][m] - self.spans["starts"][m]).sum()) * _NS)


def layer_metrics(spans: dict, names: list, jumps: int) -> dict:
    """Every per-layer metric of the pass, keyed by metric name.

    jumps is the jump count read back from the pass's paths.jsonl files.
    """
    s = _Spans(spans, names)
    out = {
        "scenarios.load_config.s": s.self_s("scenarios.load_config"),
        "sbp.periodic_rate_from_density.s": s.self_s("sbp.periodic_rate_from_density"),
        "graph.validate_graph.s": s.self_s("graph.validate_graph"),
        "theta.calls": s.calls("theta.theta") + s.calls("theta.theta_partial"),
        "theta.elements": s.work("theta.theta") + s.work("theta.theta_partial"),
        "theta.s": s.self_s("theta.theta", "theta.theta_partial"),
    }
    for short in ("vector_field", "eval_H", "support", "rates_at", "rates_at_many"):
        out["hamiltonians.%s.calls" % short] = s.calls("hamiltonians." + short)
        out["hamiltonians.%s.s" % short] = s.self_s("hamiltonians." + short)
    out["hamiltonians.rates_at_many.rows"] = s.work("hamiltonians.rates_at_many")
    out.update({
        "dynamics.integrate.calls": s.calls("dynamics.integrate"),
        "dynamics.integrate.steps": s.work("dynamics.integrate"),
        "dynamics.integrate.s": s.self_s("dynamics.integrate"),
        "dynamics.rhs_evals": s.calls("hamiltonians.vector_field", parent="dynamics.integrate"),
        "dynamics.symplectic_check.s": s.self_s("dynamics.symplectic_check"),
    })
    for short in ("fundamental_matrix", "schrodinger_evolve"):
        out["dynamics.%s.steps" % short] = s.work("dynamics." + short)
        out["dynamics.%s.s" % short] = s.self_s("dynamics." + short)
    for short in ("build_rate_matrix", "validate_rate_matrix", "sample_paths", "propagator"):
        out["markov.%s.calls" % short] = s.calls("markov." + short)
        out["markov.%s.s" % short] = s.self_s("markov." + short)
    rate_rows = s.work("hamiltonians.rates_at_many", parent="markov.sample_paths")
    proposals = rate_rows - SAMPLER_GRID_ROWS * s.calls("markov.sample_paths")
    sampler_wall = s.wall_s("markov.sample_paths")
    out.update({
        "markov.validate_rate_matrix.entries": s.work("markov.validate_rate_matrix"),
        "markov.sample_paths.paths": s.work("markov.sample_paths"),
        "markov.sample_paths.rate_rows": rate_rows,
        "markov.jumps": float(jumps),
        "markov.accept_ratio": jumps / proposals if proposals > 0 else 0.0,
        "markov.paths_per_s": (s.work("markov.sample_paths") / sampler_wall
                               if sampler_wall > 0 else 0.0),
        "markov.empirical_densities.s": s.self_s("markov.empirical_densities"),
        "markov.propagator.steps": s.work("markov.propagator"),
        "sbp.solve_bridge.s": s.self_s("sbp.solve_bridge"),
        "sbp.ipfp_sweeps": s.work("sbp.solve_bridge"),
        "sbp.integrated_entropy_rate.s": s.self_s("sbp.integrated_entropy_rate"),
        "sbp.path_entropy_bruteforce.s": s.self_s("sbp.path_entropy_bruteforce"),
        "sbp.markov_condition_residual.s": s.self_s("sbp.markov_condition_residual"),
        "cli.self_s": s.self_s("cli.main"),
    })
    return out


def hotspots(spans: dict, names: list, invocations: list) -> dict:
    """Self seconds per span name within each invocation, largest first."""
    out = {}
    for index, inv in enumerate(invocations):
        m = spans["invocations"] == index
        per_name = np.bincount(spans["names"][m], weights=spans["self_ns"][m],
                               minlength=len(names)) * _NS
        order = np.argsort(-per_name)
        out[inv] = [[names[i], float(per_name[i])] for i in order if per_name[i] > 0]
    return out
