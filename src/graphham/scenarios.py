"""Scenario configs: JSON parsing plus the built-in named setups.

A scenario bundles everything one command run needs: the graph, the
Hamiltonian, either an initial phase point or a marginal pair, the time
window, and sampler settings. Built-ins are code-backed (their periodic
rates are closures), so a config referring to one carries only the name
plus overrides and still reproduces the identical run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphHamError
from .graph import Graph, complete_graph, validate_graph
from .hamiltonians import (
    HamiltonianSpec,
    PhasePoint,
    ReferenceRates,
    constant_rates,
    fisher_ot,
    lp_kinetic,
    ot_kinetic,
    sbp_entropic,
    sbp_psi,
    schrodinger_fg,
    symmetric_rates,
)
from .sbp import periodic_rate_from_density
from .theta import from_name


class ConfigError(GraphHamError):
    """A config field is missing, malformed, or inconsistent."""

    def __init__(self, key: str, message: str):
        super().__init__("config key %r: %s" % (key, message))
        self.key = key


@dataclass
class Scenario:
    name: str
    graph: Graph
    hamiltonian: HamiltonianSpec | None = None
    rate_kind: str | None = None          # generator extraction for geodesic runs
    reference: ReferenceRates | None = None
    initial: PhasePoint | None = None
    rho0: np.ndarray | None = None
    rho1: np.ndarray | None = None
    reference_initial: np.ndarray | None = None
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    method: str = "rk4"
    particles: int = 1000
    seed: int = 0
    checkpoints: int = 10
    lam: float | None = None              # explicit proposal rate; None auto-bounds
    period: float | None = None
    density: object | None = None         # analytic density closure, periodic only
    echo: dict = field(default_factory=dict)  # re-readable config for run.json


# -- built-in scenarios --------------------------------------------------------------

_SQ6, _SQ2 = np.sqrt(6.0), np.sqrt(2.0)


# loops and derivatives map one time to (n,) and an array of K times to (K, n)
def _two_node_density(t):
    c = 0.25 * np.cos(t)
    return np.array([0.5 + c, 0.5 - c]).T


def _two_node_deriv(t):
    s = 0.25 * np.sin(t)
    return np.array([-s, s]).T


def _circle_density(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([c / (2 * _SQ6) + s / (6 * _SQ2) + 1 / 3,
                     -c / (2 * _SQ6) + s / (6 * _SQ2) + 1 / 3,
                     -s / (3 * _SQ2) + 1 / 3]).T


def _circle_deriv(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([-s / (2 * _SQ6) + c / (6 * _SQ2),
                     s / (2 * _SQ6) + c / (6 * _SQ2),
                     -c / (3 * _SQ2)]).T


def _periodic_scenario(name, n, density, deriv):
    g = complete_graph(n)
    period = 2 * np.pi
    rates = periodic_rate_from_density(density, period, n, deriv_fn=deriv).rates
    return Scenario(
        name=name, graph=g, hamiltonian=sbp_psi(g, rates), rate_kind="sbp",
        reference=rates,
        initial=PhasePoint(density(0.0), np.zeros(n), chart="psi"),
        t1=period, period=period, density=density, echo={"builtin": name})


def _two_node_periodic():
    return _periodic_scenario("two-node-periodic", 2, _two_node_density, _two_node_deriv)


def _three_node_circle():
    return _periodic_scenario("three-node-circle", 3, _circle_density, _circle_deriv)


def _two_node_bridge():
    g = complete_graph(2)
    rates = symmetric_rates(g, 1.0)
    return Scenario(
        name="two-node-bridge", graph=g, hamiltonian=sbp_entropic(g, rates),
        rate_kind="sbp", reference=rates,
        rho0=np.array([0.9, 0.1]), rho1=np.array([0.1, 0.9]),
        reference_initial=np.array([0.5, 0.5]), echo={"builtin": "two-node-bridge"})


def _three_node_bridge():
    g = complete_graph(3)
    rates = symmetric_rates(g, 0.8)
    return Scenario(
        name="three-node-bridge", graph=g, hamiltonian=sbp_entropic(g, rates),
        rate_kind="sbp", reference=rates,
        rho0=np.array([0.5, 0.3, 0.2]), rho1=np.array([0.2, 0.3, 0.5]),
        reference_initial=np.full(3, 1 / 3), echo={"builtin": "three-node-bridge"})


def _two_node_self_bridge():
    g = complete_graph(2)
    rates = symmetric_rates(g, 1.0)
    flat = np.array([0.5, 0.5])
    return Scenario(
        name="two-node-self-bridge", graph=g, hamiltonian=sbp_entropic(g, rates),
        rate_kind="sbp", reference=rates,
        rho0=flat.copy(), rho1=flat.copy(), reference_initial=flat.copy(),
        echo={"builtin": "two-node-self-bridge"})


def _two_node_upwind():
    g = complete_graph(2)
    return Scenario(
        name="two-node-upwind", graph=g,
        hamiltonian=ot_kinetic(g, from_name("upwind")), rate_kind="upwind_ot",
        initial=PhasePoint(np.array([0.75, 0.25]), np.array([0.2, -0.1])),
        echo={"builtin": "two-node-upwind"})


def _theta_average_counter():
    # the arithmetic-mean splitting asks node 1 for a negative rate here
    g = complete_graph(2)
    return Scenario(
        name="theta-average-counter", graph=g,
        hamiltonian=ot_kinetic(g, from_name("average")), rate_kind="theta_general",
        initial=PhasePoint(np.array([0.5, 0.5]), np.array([1.0, 0.0])),
        t1=0.5, echo={"builtin": "theta-average-counter"})


BUILTINS = {
    "two-node-periodic": _two_node_periodic,
    "three-node-circle": _three_node_circle,
    "two-node-bridge": _two_node_bridge,
    "three-node-bridge": _three_node_bridge,
    "two-node-self-bridge": _two_node_self_bridge,
    "two-node-upwind": _two_node_upwind,
    "theta-average-counter": _theta_average_counter,
}

BRIDGE_BUILTINS = ("two-node-bridge", "three-node-bridge", "two-node-self-bridge")


# -- config parsing --------------------------------------------------------------------


def _need(data: dict, key: str, kind=None):
    if key not in data:
        raise ConfigError(key, "missing")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(key, "expected %s, got %r"
                          % (getattr(kind, "__name__", kind), type(value).__name__))
    return value


def _parse_graph(data) -> Graph:
    nodes = _need(data, "nodes", int)
    edges = _need(data, "edges", list)
    try:
        return validate_graph(nodes, edges)
    except GraphHamError as exc:
        raise ConfigError("edges", str(exc)) from exc


def _parse_reference(data, g: Graph) -> ReferenceRates:
    kind = _need(data, "kind", str)
    if kind == "constant":
        matrix = np.asarray(_need(data, "matrix", list), dtype=float)
        if matrix.shape != (g.n, g.n):
            raise ConfigError("matrix", "expected shape %s" % ((g.n, g.n),))
        return constant_rates(matrix)
    if kind == "symmetric":
        return symmetric_rates(g, float(_need(data, "value", (int, float))))
    raise ConfigError("kind", "unknown reference kind %r" % kind)


def _parse_hamiltonian(data, g: Graph, reference):
    variant = _need(data, "variant", str)
    try:
        if variant in ("ot_kinetic", "lp_kinetic", "fisher_ot"):
            theta = from_name(_need(data, "theta", str))
            if variant == "ot_kinetic":
                return ot_kinetic(g, theta)
            if variant == "lp_kinetic":
                return lp_kinetic(g, theta, q=float(data.get("q", 2.0)))
            return fisher_ot(g, theta, beta=float(data.get("beta", 0.125)))
        if variant in ("sbp_entropic", "sbp_psi", "schrodinger_fg"):
            if reference is None:
                raise ConfigError("reference", "required for variant %r" % variant)
            maker = {"sbp_entropic": sbp_entropic, "sbp_psi": sbp_psi,
                     "schrodinger_fg": schrodinger_fg}[variant]
            return maker(g, reference)
    except ValueError as exc:
        # argument checks of the constructors, e.g. an unknown theta or q <= 1
        raise ConfigError("hamiltonian", str(exc)) from exc
    raise ConfigError("variant", "unknown variant %r" % variant)


# type and [low, high) range of each sampler setting; a seed is a 64-bit Philox key
_SAMPLER = {"particles": (int, 1, np.inf), "seed": (int, 0, 2 ** 64),
            "checkpoints": (int, 1, np.inf), "lam": (float, -np.inf, np.inf)}


def sampler_setting(key: str, value):
    """A sampler setting cast to its type and checked against its range."""
    cast, low, high = _SAMPLER[key]
    try:
        value = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(key, "expected %s, got %r" % (cast.__name__, value)) from exc
    if not low <= value < high:
        raise ConfigError(key, "%r outside [%r, %r)" % (value, low, high))
    return value


_RATE_KIND = {"upwind": "upwind_ot", "average": "theta_general",
              "logmean": "theta_general"}


def parse_config(data: dict, name: str = "config") -> Scenario:
    """Assemble a Scenario from a parsed JSON object.

    A {"builtin": name} config resolves from the registry first; any of
    the horizon/sampler keys then override the built-in's defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be an object")
    if "builtin" in data:
        key = data["builtin"]
        if key not in BUILTINS:
            raise ConfigError("builtin", "unknown scenario %r (have: %s)"
                              % (key, ", ".join(sorted(BUILTINS))))
        scenario = BUILTINS[key]()
    else:
        g = _parse_graph(_need(data, "graph", dict))
        reference = None
        if "reference" in data:
            reference = _parse_reference(_need(data, "reference", dict), g)
        ham = None
        rate_kind = None
        if "hamiltonian" in data:
            ham = _parse_hamiltonian(_need(data, "hamiltonian", dict), g, reference)
            if ham.variant in ("ot_kinetic", "lp_kinetic", "fisher_ot"):
                rate_kind = _RATE_KIND[ham.theta.kind]
            else:
                rate_kind = "sbp"
        scenario = Scenario(name=name, graph=g, hamiltonian=ham,
                            rate_kind=rate_kind, reference=reference,
                            echo={})
        if "initial" in data:
            init = _need(data, "initial", dict)
            rho = np.asarray(_need(init, "rho", list), dtype=float)
            pot = np.asarray(_need(init, "pot", list), dtype=float)
            if rho.shape != (g.n,) or pot.shape != (g.n,):
                raise ConfigError("initial", "rho and pot must have %d entries" % g.n)
            chart = init.get("chart", "S")
            if chart not in ("S", "psi", "fg"):
                raise ConfigError("chart", "unknown chart %r" % chart)
            scenario.initial = PhasePoint(rho, pot, chart=chart)
        if "marginals" in data:
            marg = _need(data, "marginals", dict)
            scenario.rho0 = np.asarray(_need(marg, "rho0", list), dtype=float)
            scenario.rho1 = np.asarray(_need(marg, "rho1", list), dtype=float)
            if "reference_initial" in marg:
                scenario.reference_initial = np.asarray(
                    marg["reference_initial"], dtype=float)
        if scenario.initial is not None and scenario.rho0 is not None:
            raise ConfigError("initial",
                              "give an initial state or marginals, not both")

    horizon = data.get("horizon", {})
    if not isinstance(horizon, dict):
        raise ConfigError("horizon", "expected an object")
    for key in ("t0", "t1", "dt"):
        if key in horizon:
            setattr(scenario, key, float(horizon[key]))
    if "method" in horizon:
        if horizon["method"] not in ("rk4", "implicit_midpoint"):
            raise ConfigError("method", "unknown integrator %r" % horizon["method"])
        scenario.method = horizon["method"]
    sampler = data.get("sampler", {})
    if not isinstance(sampler, dict):
        raise ConfigError("sampler", "expected an object")
    for key in _SAMPLER:
        if key in sampler:
            setattr(scenario, key, sampler_setting(key, sampler[key]))
    echo = dict(data)
    echo.update(scenario.echo)
    scenario.echo = echo
    return scenario


def load_config(source: str) -> Scenario:
    """Resolve a --config value: a JSON file path or a built-in name."""
    if source in BUILTINS:
        return parse_config({"builtin": source}, name=source)
    try:
        with open(source) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("config", "no such file or built-in: %r" % source) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", "malformed JSON: %s" % exc) from exc
    return parse_config(data, name=source)
