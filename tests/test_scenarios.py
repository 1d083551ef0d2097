"""Config parsing, the built-in scenario registry and the package's one export."""

import inspect
import json
import sys

import numpy as np
import pytest

from graphham.scenarios import (
    BRIDGE_BUILTINS,
    BUILTINS,
    ConfigError,
    load_config,
    parse_config,
)


def test_the_package_exports_only_load_config():
    import graphham
    import graphham.theta
    assert graphham.load_config is load_config
    # the function theta no longer shadows its submodule
    assert graphham.theta is sys.modules["graphham.theta"]
    assert {name for name, value in vars(graphham).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == {"load_config"}


class TestBuiltins:
    def test_registry_names_resolve(self):
        for name in BUILTINS:
            sc = load_config(name)
            assert sc.name == name
            assert sc.graph.n >= 2

    def test_bridge_builtins_carry_marginals(self):
        for name in BRIDGE_BUILTINS:
            sc = load_config(name)
            assert sc.rho0 is not None and sc.rho1 is not None
            assert sc.initial is None
            assert sc.reference is not None

    def test_periodic_builtins_reproduce_density(self):
        # the assembled rates must actually drive the declared density
        for name in ("two-node-periodic", "three-node-circle"):
            sc = load_config(name)
            assert sc.period == pytest.approx(2 * np.pi)
            q = sc.reference.at(0.7)
            assert np.abs(q.sum(axis=1)).max() < 1e-12
            assert sc.initial.chart == "psi"
            assert np.all(sc.initial.pot == 0.0)

    def test_builtin_overrides(self):
        sc = parse_config({"builtin": "two-node-bridge",
                           "horizon": {"dt": 0.01},
                           "sampler": {"seed": 7, "particles": 50}})
        assert sc.dt == 0.01
        assert (sc.seed, sc.particles) == (7, 50)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"builtin": "nope"})
        assert err.value.key == "builtin"


CUSTOM = {
    "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
    "hamiltonian": {"variant": "ot_kinetic", "theta": "upwind"},
    "initial": {"rho": [0.7, 0.3], "pot": [0.1, -0.1]},
    "horizon": {"t0": 0.0, "t1": 0.5, "dt": 0.002},
}

# where each config number lives: a block holding it as "X", the key a fault
# there is reported under, and whether that key is an integer key
NUMBER_SITES = [
    ({"graph": {"nodes": "X", "edges": [[0, 1, 1.0]]}}, "nodes", True),
    ({"graph": {"nodes": 2, "edges": [["X", 1, 1.0]]}}, "edges", True),
    ({"graph": {"nodes": 2, "edges": [[0, 1, "X"]]}}, "edges", False),
    ({"reference": {"kind": "symmetric", "value": "X"}}, "value", False),
    ({"reference": {"kind": "constant", "matrix": [[-1, "X"], [1, -1]]}}, "matrix", False),
    ({"hamiltonian": {"variant": "lp_kinetic", "theta": "average", "q": "X"}}, "q", False),
    ({"hamiltonian": {"variant": "fisher_ot", "theta": "average", "beta": "X"}}, "beta", False),
    ({"initial": {"rho": ["X", 0.3], "pot": [0.1, -0.1]}}, "rho", False),
    ({"initial": {"rho": [0.7, 0.3], "pot": [0.1, "X"]}}, "pot", False),
    ({"marginals": {"rho0": ["X", 0.5], "rho1": [0.5, 0.5]}}, "rho0", False),
    ({"marginals": {"rho0": [0.5, 0.5], "rho1": [0.5, "X"]}}, "rho1", False),
    ({"marginals": {"rho0": [0.5, 0.5], "rho1": [0.5, 0.5],
                    "reference_initial": ["X", 0.5]}}, "reference_initial", False),
    ({"horizon": {"t0": "X"}}, "t0", False),
    ({"horizon": {"t1": "X"}}, "t1", False),
    ({"horizon": {"dt": "X"}}, "dt", False),
    ({"sampler": {"particles": "X"}}, "particles", True),
    ({"sampler": {"seed": "X"}}, "seed", True),
    ({"sampler": {"checkpoints": "X"}}, "checkpoints", True),
    ({"sampler": {"lam": "X"}}, "lam", False),
]


class TestCustomConfig:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(CUSTOM))
        sc = load_config(str(path))
        assert sc.rate_kind == "upwind_ot"
        assert sc.t1 == 0.5
        assert sc.initial.chart == "S"
        np.testing.assert_allclose(sc.initial.rho, [0.7, 0.3])
        assert sc.echo["graph"] == CUSTOM["graph"]

    def test_rate_kind_follows_theta(self):
        for theta, kind in (("average", "theta_general"),
                            ("logmean", "theta_general")):
            data = dict(CUSTOM, hamiltonian={"variant": "ot_kinetic", "theta": theta})
            assert parse_config(data).rate_kind == kind

    def test_sbp_variant_needs_reference(self):
        data = dict(CUSTOM, hamiltonian={"variant": "sbp_entropic"})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "reference"

    def test_constant_reference_parsed(self):
        data = dict(CUSTOM)
        data["hamiltonian"] = {"variant": "sbp_entropic"}
        data["reference"] = {"kind": "constant", "matrix": [[-1, 1], [1, -1]]}
        sc = parse_config(data)
        assert sc.rate_kind == "sbp"
        assert sc.reference.constant

    def test_marginals_exclusive_with_initial(self):
        data = dict(CUSTOM)
        data["marginals"] = {"rho0": [0.6, 0.4], "rho1": [0.4, 0.6]}
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "initial"

    def test_missing_key_is_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"graph": {"nodes": 2}})
        assert err.value.key == "edges"

    def test_bad_chart(self):
        data = dict(CUSTOM, initial={"rho": [0.7, 0.3], "pot": [0, 0], "chart": "x"})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "chart"

    def test_bad_method(self):
        data = dict(CUSTOM, horizon={"method": "euler"})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "method"

    @pytest.mark.parametrize("nodes", [True, False, 1, 0, -3])
    def test_bad_node_count_reported_under_nodes(self, nodes):
        data = dict(CUSTOM, graph={"nodes": nodes, "edges": [[0, 1, 1.0]]})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "nodes"

    def test_bad_edges_reported_as_config(self):
        data = dict(CUSTOM, graph={"nodes": 2, "edges": []})
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.key == "edges"

    @pytest.mark.parametrize("block, key", [
        ({"marginals": {"rho0": [0.5, 0.4], "rho1": [0.4, 0.6]}}, "rho0"),
        ({"marginals": {"rho0": [0.5, 0.3, 0.2], "rho1": [0.4, 0.6]}}, "rho0"),
        ({"marginals": {"rho0": [0.6, 0.4], "rho1": [1.2, -0.2]}}, "rho1"),
        ({"marginals": {"rho0": [0.6, 0.4], "rho1": [0.4, 0.6],
                        "reference_initial": [0.5, 0.6]}}, "reference_initial"),
        ({"marginals": {"rho0": [0.6, "x"], "rho1": [0.4, 0.6]}}, "rho0"),
        ({"initial": {"rho": [1.5, 0.5], "pot": [0.0, 0.0]}}, "rho"),
        ({"initial": {"rho": [0.5, 0.5], "pot": [0.0, 0.0, 0.0]}}, "pot"),
        ({"initial": {"rho": [1.0, float("nan")], "pot": [0.0, 0.0]}}, "rho"),
    ])
    def test_densities_must_lie_on_the_simplex(self, block, key):
        data = {"graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                "reference": {"kind": "symmetric", "value": 1.0}}
        with pytest.raises(ConfigError) as err:
            parse_config(dict(data, **block))
        assert err.value.key == key

    @pytest.mark.parametrize("block, key", [
        ({"hamiltonian": {"variant": "lp_kinetic", "theta": "average", "q": None}}, "q"),
        ({"hamiltonian": {"variant": "lp_kinetic", "theta": "average", "q": 10 ** 400}}, "q"),
        ({"hamiltonian": {"variant": "fisher_ot", "theta": "average", "beta": [1]}}, "beta"),
        ({"reference": {"kind": "constant", "matrix": [[-1, "a"], [1, -1]]}}, "matrix"),
        ({"reference": {"kind": "constant", "matrix": [[-1, 1], [1]]}}, "matrix"),
        ({"builtin": ["x"]}, "builtin"),
    ])
    def test_wrong_typed_values_are_config_errors(self, block, key):
        with pytest.raises(ConfigError) as err:
            parse_config(dict(CUSTOM, **block))
        assert err.value.key == key

    @pytest.mark.parametrize("block, key, bad", [
        (block, key, bad) for block, key, integer in NUMBER_SITES
        for bad in ["1", True] + ([] if integer else [10 ** 400])],
        ids=lambda v: "huge" if v == 10 ** 400 else None)
    def test_every_config_number_is_read_by_one_rule(self, block, key, bad):
        block = json.loads(json.dumps(block).replace('"X"', json.dumps(bad)))
        with pytest.raises(ConfigError) as err:
            parse_config(dict(CUSTOM, **block))
        assert err.value.key == key
        assert str(10 ** 400) not in str(err.value)

    def test_integral_float_counts_are_accepted(self):
        sc = parse_config(dict(CUSTOM, graph={"nodes": 2.0, "edges": [[0, 1, 1.0]]},
                               sampler={"particles": 1000.0}))
        assert (sc.graph.n, sc.particles) == (2, 1000)
        assert type(sc.particles) is int

    def test_fg_factor_need_not_be_a_density(self):
        data = {"graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
                "reference": {"kind": "symmetric", "value": 1.0},
                "hamiltonian": {"variant": "schrodinger_fg"},
                "initial": {"rho": [0.9, 0.4], "pot": [0.5, 0.5], "chart": "fg"}}
        assert parse_config(data).initial.chart == "fg"

    def test_rate_kind_and_period_follow_the_parts(self):
        sc = parse_config(dict(CUSTOM, hamiltonian={"variant": "ot_kinetic",
                                                    "theta": "upwind"}))
        assert sc.rate_kind == sc.hamiltonian.rate_kind == "upwind_ot"
        assert sc.period is None
        periodic = load_config("two-node-periodic")
        assert periodic.period == periodic.reference.period

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError) as err:
            load_config("/definitely/not/here.json")
        assert err.value.key == "config"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "malformed" in str(err.value)
