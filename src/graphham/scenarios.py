"""Scenario configs: JSON parsing plus the built-in named setups.

A scenario bundles everything one command run needs: the graph, the
Hamiltonian, either an initial phase point or a marginal pair, the time
window, and sampler settings. Built-ins are code-backed (their periodic
rates are closures), so a config referring to one carries only the name
plus overrides and still reproduces the identical run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryDensity, GraphHamError
from .graph import Density, Graph, complete_graph, validate_graph
from .hamiltonians import (
    _ENTROPIC,
    _KINETIC,
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
from .markov import _MAX_STEPS, _step_count
from .sbp import periodic_rate_from_density
from .theta import AVERAGE, UPWIND, from_name


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
    echo: dict = field(default_factory=dict)  # re-readable config for run.json

    @property
    def rate_kind(self) -> str | None:
        """The generator a geodesic run extracts, from its Hamiltonian."""
        return None if self.hamiltonian is None else self.hamiltonian.rate_kind

    @property
    def period(self) -> float | None:
        """The period the reference rates declare, if any."""
        return None if self.reference is None else self.reference.period


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
        name=name, graph=g, hamiltonian=sbp_psi(g, rates), reference=rates,
        initial=PhasePoint(density(0.0), np.zeros(n), chart="psi"),
        t1=period, echo={"builtin": name})


def _bridge_scenario(name, n, value, rho0, rho1):
    """A marginal pair over the symmetric chain on K_n, whose reference starts uniform."""
    g = complete_graph(n)
    rates = symmetric_rates(g, value)
    return Scenario(
        name=name, graph=g, hamiltonian=sbp_entropic(g, rates), reference=rates,
        rho0=np.array(rho0), rho1=np.array(rho1), reference_initial=np.full(n, 1 / n),
        echo={"builtin": name})


def _kinetic_scenario(name, theta, rho, pot, **horizon):
    """An ot_kinetic flow on K_n from the S-chart state (rho, pot)."""
    g = complete_graph(len(rho))
    return Scenario(
        name=name, graph=g, hamiltonian=ot_kinetic(g, theta),
        initial=PhasePoint(np.array(rho), np.array(pot)), echo={"builtin": name}, **horizon)


BUILTINS = {
    "two-node-periodic": lambda: _periodic_scenario(
        "two-node-periodic", 2, _two_node_density, _two_node_deriv),
    "three-node-circle": lambda: _periodic_scenario(
        "three-node-circle", 3, _circle_density, _circle_deriv),
    "two-node-bridge": lambda: _bridge_scenario(
        "two-node-bridge", 2, 1.0, [0.9, 0.1], [0.1, 0.9]),
    "three-node-bridge": lambda: _bridge_scenario(
        "three-node-bridge", 3, 0.8, [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]),
    "two-node-self-bridge": lambda: _bridge_scenario(
        "two-node-self-bridge", 2, 1.0, [0.5, 0.5], [0.5, 0.5]),
    "two-node-upwind": lambda: _kinetic_scenario(
        "two-node-upwind", UPWIND, [0.75, 0.25], [0.2, -0.1]),
    # the arithmetic-mean splitting asks node 1 for a negative rate here
    "theta-average-counter": lambda: _kinetic_scenario(
        "theta-average-counter", AVERAGE, [0.5, 0.5], [1.0, 0.0], t1=0.5),
}

BRIDGE_BUILTINS = ("two-node-bridge", "three-node-bridge", "two-node-self-bridge")


# -- config parsing --------------------------------------------------------------------


def _need(data: dict, key: str, kind=None):
    if key not in data:
        raise ConfigError(key, "missing")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(key, "expected %s, got %r" % (kind.__name__, type(value).__name__))
    return value


def _parse_graph(data) -> Graph:
    nodes = config_number("nodes", _need(data, "nodes"))
    edges = _need(data, "edges", list)
    _check_leaves("edges", edges)
    try:
        return validate_graph(nodes, edges)
    except GraphHamError as exc:
        raise ConfigError("edges", str(exc)) from exc


def _parse_reference(data, g: Graph) -> ReferenceRates:
    kind = _need(data, "kind", str)
    if kind == "constant":
        matrix = _numbers(data, "matrix")
        if matrix.shape != (g.n, g.n):
            raise ConfigError("matrix", "expected shape %s" % ((g.n, g.n),))
        return constant_rates(matrix)
    if kind == "symmetric":
        return symmetric_rates(g, config_number("value", _need(data, "value")))
    raise ConfigError("kind", "unknown reference kind %r" % kind)


def _parse_hamiltonian(data, g: Graph, reference):
    variant = _need(data, "variant", str)
    try:
        if variant in _KINETIC:
            theta = from_name(_need(data, "theta", str))
            if variant == "ot_kinetic":
                return ot_kinetic(g, theta)
            if variant == "lp_kinetic":
                return lp_kinetic(g, theta, q=config_number("q", data.get("q", 2.0)))
            return fisher_ot(g, theta, beta=config_number("beta", data.get("beta", 0.125)))
        if variant in _ENTROPIC:
            if reference is None:
                raise ConfigError("reference", "required for variant %r" % variant)
            maker = {"sbp_entropic": sbp_entropic, "sbp_psi": sbp_psi,
                     "schrodinger_fg": schrodinger_fg}[variant]
            return maker(g, reference)
    except ValueError as exc:
        # argument checks of the constructors, e.g. an unknown theta or q <= 1
        raise ConfigError("hamiltonian", str(exc)) from exc
    raise ConfigError("variant", "unknown variant %r" % variant)


def _numbers(data: dict, key: str) -> np.ndarray:
    """data[key], a list of numbers or of equal-length lists of them, as floats."""
    value = _need(data, key, list)
    _check_leaves(key, value)
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:
        raise ConfigError(key, "expected equal-length rows of numbers") from exc


def _vector(data: dict, key: str, n: int, density: bool = False) -> np.ndarray:
    """data[key] as n floats; a density must also lie on the simplex by
    graph.Density's rule."""
    v = _numbers(data, key)
    if v.shape != (n,):
        raise ConfigError(key, "expected %d entries, got shape %s" % (n, v.shape))
    if density:
        try:
            Density(v)
        except BoundaryDensity as exc:
            raise ConfigError(key, "not a density: %s" % exc) from exc
    return v


# type and [low, high) range of the integer config keys (a seed is a 64-bit Philox
# key, and the step cap of every grid bounds the checkpoints); any other config
# number is a float of any finite value
_INTEGER_KEYS = {"nodes": (int, 2, np.inf), "particles": (int, 1, np.inf),
                 "seed": (int, 0, 2 ** 64), "checkpoints": (int, 1, _MAX_STEPS + 1)}


def _as_float(key: str, value) -> float:
    """A JSON number, an int or a float but not a bool or a string, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, "expected a number, got %r" % type(value).__name__)
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(key, "an integer too large for a float") from exc


def _check_leaves(key: str, value) -> None:
    """Refuse nested lists unless every leaf is a JSON number a float can hold;
    only the type is checked, so NaN and infinite leaves pass."""
    stack = [value]
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(leaf)
        else:
            _as_float(key, leaf)


def config_number(key: str, value):
    """The number under config key `key`, cast to the key's type. It must be a
    JSON number, finite, integral for an integer key, and in the key's range."""
    cast, low, high = _INTEGER_KEYS.get(key, (float, -np.inf, np.inf))
    as_float = _as_float(key, value)
    if not math.isfinite(as_float):
        raise ConfigError(key, "%r is not finite" % as_float)
    if cast is int and not as_float.is_integer():
        raise ConfigError(key, "expected an integer, got %r" % value)
    value = cast(value)
    if not low <= value < high:
        raise ConfigError(key, "%r outside [%r, %r)" % (value, low, high))
    return value


def check_horizon(scenario: Scenario) -> None:
    """Read t0, t1 and dt through config_number, and refuse a horizon no grid can
    step: t1 must be after t0, and dt take at most markov._MAX_STEPS steps."""
    for key in ("t0", "t1", "dt"):
        setattr(scenario, key, config_number(key, getattr(scenario, key)))
    if not scenario.t1 > scenario.t0:
        raise ConfigError("t1", "%r is not after t0 = %r" % (scenario.t1, scenario.t0))
    try:
        _step_count(scenario.t0, scenario.t1, scenario.dt)
    except ValueError as exc:
        raise ConfigError("dt", str(exc)) from exc


def parse_config(data: dict, name: str = "config") -> Scenario:
    """Assemble a Scenario from a parsed JSON object.

    A {"builtin": name} config resolves from the registry first; any of
    the horizon/sampler keys then override the built-in's defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be an object")
    if "builtin" in data:
        key = data["builtin"]
        if not isinstance(key, str) or key not in BUILTINS:
            raise ConfigError("builtin", "unknown scenario %r (have: %s)"
                              % (key, ", ".join(sorted(BUILTINS))))
        scenario = BUILTINS[key]()
    else:
        g = _parse_graph(_need(data, "graph", dict))
        reference = None
        if "reference" in data:
            reference = _parse_reference(_need(data, "reference", dict), g)
        ham = None
        if "hamiltonian" in data:
            ham = _parse_hamiltonian(_need(data, "hamiltonian", dict), g, reference)
        scenario = Scenario(name=name, graph=g, hamiltonian=ham, reference=reference,
                            echo={})
        if "initial" in data:
            init = _need(data, "initial", dict)
            chart = init.get("chart", "S")
            if chart not in ("S", "psi", "fg"):
                raise ConfigError("chart", "unknown chart %r" % chart)
            if ham is not None and chart != ham.chart:
                raise ConfigError("initial", "state chart %r does not match the %s chart %r"
                                  % (chart, ham.variant, ham.chart))
            # the fg chart's rho slot holds the factor f, not a density
            scenario.initial = PhasePoint(_vector(init, "rho", g.n, density=chart != "fg"),
                                          _vector(init, "pot", g.n), chart=chart)
        if "marginals" in data:
            marg = _need(data, "marginals", dict)
            scenario.rho0 = _vector(marg, "rho0", g.n, density=True)
            scenario.rho1 = _vector(marg, "rho1", g.n, density=True)
            if "reference_initial" in marg:
                scenario.reference_initial = _vector(marg, "reference_initial", g.n,
                                                     density=True)
        if scenario.initial is not None and scenario.rho0 is not None:
            raise ConfigError("initial",
                              "give an initial state or marginals, not both")

    horizon = data.get("horizon", {})
    if not isinstance(horizon, dict):
        raise ConfigError("horizon", "expected an object")
    for key in ("t0", "t1", "dt"):
        if key in horizon:
            setattr(scenario, key, horizon[key])
    check_horizon(scenario)
    if "method" in horizon:
        if horizon["method"] not in ("rk4", "implicit_midpoint"):
            raise ConfigError("method", "unknown integrator %r" % horizon["method"])
        scenario.method = horizon["method"]
    sampler = data.get("sampler", {})
    if not isinstance(sampler, dict):
        raise ConfigError("sampler", "expected an object")
    for key in sampler:
        if key not in ("particles", "seed", "checkpoints"):
            raise ConfigError(key, "not a sampler setting (have: checkpoints, particles, seed)")
        setattr(scenario, key, config_number(key, sampler[key]))
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
