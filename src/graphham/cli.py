"""Command-line front end: scenario in, artifacts out.

Four subcommands share one artifact layout under --out: run.json echoes the
resolved config and versions, trajectory.csv carries the integrated flow,
rates.json the generator validity report, paths.jsonl the sampled paths,
and report.json whatever the subcommand measured. Exit codes are a stable
contract: 0 success, 1 config or input error, 2 rate-validity failure,
3 bridge nonconvergence, 4 sampler bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import metadata
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .dynamics import (
    _MONODROMY_DT,
    hopf_cole,
    hopf_cole_inverse,
    integrate,
    madelung,
    madelung_inverse,
    monodromy,
    symplectic_check,
)
from .errors import (
    GraphHamError,
    NoRateDecomposition,
    NonconvergedIPFP,
    NonsmoothSpec,
    RateBoundExceeded,
)
from .hamiltonians import (
    _BLOCK_ENTRIES,
    PhasePoint,
    _dense,
    _kolmogorov_pairs,
    _RecordedRates,
    sbp_entropic,
    vector_field,
)
from .markov import (
    _rate_pairs,
    _rate_stack,
    _step_count,
    build_rate_matrix,
    path_chunks,
    propagator,
)
from .sbp import (
    BridgeProblem,
    markov_condition_residual,
    path_entropy_bruteforce,
    relative_entropy,
    solve_bridge,
    stationary_point,
)
from .scenarios import ConfigError, Scenario, check_horizon, config_number, load_config


# paths per block of paths.jsonl turned into strings at once
_PATH_BLOCK = 1024
# array entries per block of a JSON artifact turned into strings at once
_ARRAY_BLOCK = 1 << 14
_INDENT = "  "


def _version() -> str:
    try:
        return metadata.version("graphham")
    except metadata.PackageNotFoundError:
        return "unknown"


def _dump(path: Path, obj) -> None:
    """Write obj byte for byte as json.dumps(obj, indent=2, sort_keys=True)
    plus a newline, streaming to the file.

    An ndarray is written as its tolist() would be, in blocks of
    leading-axis slices of about _ARRAY_BLOCK entries (at least one slice),
    so the writer's memory does not grow with the leading axis.
    """
    with open(path, "w") as fh:
        _write_value(fh.write, obj, 0)
        fh.write("\n")


def _write_value(write, obj, depth: int) -> None:
    """Write one JSON value whose opening sits at nesting depth `depth`."""
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size:
            _write_array(write, obj, depth)
            return
        obj = obj.tolist()                  # a scalar or nested empty lists
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        write(json.dumps(obj))
        return
    keyed = isinstance(obj, dict)
    write("{" if keyed else "[")
    for k, item in enumerate(sorted(obj) if keyed else obj):
        write(("," if k else "") + "\n" + _INDENT * (depth + 1))
        if keyed:
            if not isinstance(item, str):
                raise TypeError("artifact keys must be str, not %s" % type(item).__name__)
            write(encode_basestring_ascii(item) + ": ")
            item = obj[item]
        _write_value(write, item, depth + 1)
    write("\n" + _INDENT * depth + ("}" if keyed else "]"))


def _entry_texts(block: np.ndarray) -> list:
    """The entries of an array in C order, spelled as json.dumps spells them."""
    flat = block.ravel()
    kind = flat.dtype.kind
    if kind in "iu":
        return list(map(int.__repr__, flat.tolist()))
    if kind == "b":
        return np.where(flat, "true", "false").tolist()
    if kind != "f":
        raise TypeError("arrays of dtype %s are not JSON serializable" % flat.dtype)
    # every +0.0 shares one string; -0.0 and NaN are "nonzero" here
    texts = np.empty(flat.size, dtype=object)
    texts.fill("0.0")               # np.full of an object costs twice as much
    nonzero = np.flatnonzero((flat != 0) | np.signbit(flat))
    texts[nonzero] = list(map(float.__repr__, flat[nonzero].tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        texts[i] = json.dumps(float(flat[i]))
    return texts.tolist()


def _write_array(write, a: np.ndarray, depth: int) -> None:
    """Write a nonempty array of at least one axis as its nested lists, one
    block of leading-axis slices of about _ARRAY_BLOCK entries at a time."""
    # the opener, separator and closer of a list on each axis
    levels = [("[\n" + _INDENT * (depth + k + 1), ",\n" + _INDENT * (depth + k + 1),
               "\n" + _INDENT * (depth + k) + "]") for k in range(a.ndim)]
    step = max(1, _ARRAY_BLOCK // (a.size // a.shape[0]))
    write(levels[0][0])
    for b in range(0, a.shape[0], step):
        texts = _entry_texts(a[b:b + step])
        for k in range(a.ndim - 1, 0, -1):
            opener, sep, closer = levels[k]
            n = a.shape[k]
            texts = [opener + sep.join(texts[i:i + n]) + closer
                     for i in range(0, len(texts), n)]
        if b:
            write(levels[0][1])
        write(levels[0][1].join(texts))
    write(levels[0][2])


def _write_run(out: Path, command: str, scenario: Scenario) -> None:
    _dump(out / "run.json", {
        "command": command,
        "config": scenario.echo,
        "effective": {"t0": scenario.t0, "t1": scenario.t1, "dt": scenario.dt,
                      "method": scenario.method, "particles": scenario.particles,
                      "seed": scenario.seed, "checkpoints": scenario.checkpoints},
        "versions": {"graphham": _version(), "numpy": np.__version__},
    })


def _to_s_chart(state: PhasePoint) -> PhasePoint:
    return {"S": lambda s: s, "psi": hopf_cole_inverse, "fg": madelung_inverse}[state.chart](state)


def _write_trajectory(out: Path, traj) -> None:
    """trajectory.csv byte for byte as csv.writer writes it: no field spelled
    by %.17g needs quoting. Rows become Python floats one at a time."""
    n = traj.rho.shape[1]
    rhos = traj.rho * traj.pot if traj.chart == "fg" else traj.rho
    row = ",".join(["%.17g"] * (2 * n + 3)) + "\r\n"
    with open(out / "trajectory.csv", "w", newline="") as fh:
        fh.write(",".join(["time"] + ["rho_%d" % i for i in range(n)]
                          + ["S_%d" % i for i in range(n)] + ["H", "mass_defect"]) + "\r\n")
        for k, (t, h, defect) in enumerate(zip(traj.times.tolist(), traj.H.tolist(),
                                               traj.mass_defect.tolist())):
            fh.write(row % (t, *rhos[k].tolist(), *traj.pot[k].tolist(), h, defect))


def _write_paths(out: Path, chunks, each=None) -> None:
    """Write paths.jsonl from an iterable of Paths chunks, one line per path,
    byte for byte what json.dumps gives its dict; each(chunk), if given, is
    called on every chunk once its lines are written.

    The lines go to paths.jsonl.part, renamed to paths.jsonl after the last
    chunk and deleted if anything raises, so a failure leaves no partial
    paths.jsonl. No chunk is held while the next is drawn, and a chunk is
    turned into strings _PATH_BLOCK paths at a time, so the writer's memory
    does not grow with the ensemble.
    """
    part = out / "paths.jsonl.part"
    try:
        with open(part, "w") as fh:
            for chunk in chunks:
                _write_lines(fh, chunk)
                if each is not None:
                    each(chunk)
                del chunk
        os.replace(part, out / "paths.jsonl")
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_lines(fh, paths) -> None:
    """Write the lines of one Paths chunk, whose path k is path first + k. A
    block of paths is one "".join of its pieces, path by path: the head's
    opening, the path's index and the head's rest, a separator and a repr per
    jump time, and one token per state, which carries the brackets."""
    head = '{"seed": [%d, ' % paths.seed
    tail = '], "t0": %r, "t1": %r, "jump_times": [' % (paths.t0, paths.t1)
    # tokens[(2 first + last) n + s] spells state s as its path's first and/or last
    tokens = np.array([('], "states": [' if first else ", ") + str(s) + ("]}\n" if last else "")
                       for first in (0, 1) for last in (0, 1) for s in range(paths.n)],
                      dtype=object)
    offsets = paths.offsets
    for b in range(0, len(paths), _PATH_BLOCK):
        e = min(b + _PATH_BLOCK, len(paths))
        # path k of the block has jumps a[k]:a[k + 1]; the 3 head pieces, 2 per
        # jump and 1 per state of the paths before it put its start at 4 k + 3 a[k]
        a, k = offsets[b:e + 1] - offsets[b], np.arange(e - b)
        jumps, start = np.diff(a), 4 * k + 3 * a[:-1]
        texts = np.empty(4 * (e - b) + 3 * int(a[-1]), dtype=object)
        texts.fill(", ")
        texts[start], texts[start + 2] = head, tail
        texts[start + 1] = list(map(str, range(paths.first + b, paths.first + e)))
        # jump i of path k: a separator ("" first) at start[k] + 3 + 2 (i - a[k]), then its repr
        texts[start[jumps > 0] + 3] = ""
        texts[np.repeat(start - 2 * a[:-1] + 4, jumps) + 2 * np.arange(a[-1])] = list(
            map(float.__repr__, paths.times[offsets[b]:offsets[e]].tolist()))
        # state j of the block, of path k, after its path's jumps: 3 k + 2 a[k + 1] + 3 + j
        code = np.zeros(int(a[-1]) + e - b, dtype=np.intp)
        code[a[:-1] + k] += 2 * paths.n
        code[a[1:] + k] += paths.n
        texts[np.repeat(3 * k + 2 * a[1:] + 3, jumps + 1) + np.arange(len(code))] = tokens[
            code + paths.states[offsets[b] + b:offsets[e] + e]]
        fh.write("".join(texts.tolist()))


def _rate_report(scenario: Scenario, traj):
    """Validity report over the recorded states, and their generators: the (K, n)
    diagonals and (K, P) rates on the pairs (src, dst) that _rate_stack fills.

    The states go through the S chart, _rate_stack and the Kolmogorov rule on pairs
    in blocks of about _BLOCK_ENTRIES diagonal and pair entries; a block that raises
    is rerun record by record, so the earliest failing record raises the error of its
    first failed check. Only record 0 (entries_t0) and the first invalid one are dense."""
    spec, times, n = scenario.hamiltonian, traj.times, scenario.graph.n
    src, dst = _rate_pairs(spec)
    diagonals, rates = np.empty((len(times), n)), np.empty((len(times), len(src)))
    size, clamped, first = max(1, _BLOCK_ENTRIES // (n + len(src))), 0, None

    def record(k):          # record k alone, scattered and checked by validate_rate_matrix
        return build_rate_matrix(spec, _to_s_chart(traj.state(k)), float(times[k]))

    for lo in range(0, len(times), size):
        hi = min(lo + size, len(times))
        try:
            state = _to_s_chart(PhasePoint(traj.rho[lo:hi], traj.pot[lo:hi], traj.chart))
            raw = _rate_stack(spec, state.rho, state.pot, times[lo:hi])
        except GraphHamError:
            for k in range(lo, hi):
                record(k)
            raise
        diagonals[lo:hi], rates[lo:hi], count, invalid = _kolmogorov_pairs(*raw, src)
        clamped += count
        if first is None and invalid.any():
            first = lo + int(np.argmax(invalid))
    bad = [] if first is None else record(first).violations
    report = {"kind": scenario.rate_kind, "valid": first is None, "clamped": clamped,
              "violations": [[int(i), int(j), float(v)] for i, j, v in bad],
              "checked_times": len(times), "entries_t0": _dense(src, dst, diagonals[:1], rates[:1])[0],
              "first_invalid_time": None if first is None else float(times[first])}
    return report, (diagonals, rates, src, dst)


def cmd_geodesic(scenario: Scenario, out: Path, args) -> int:
    if scenario.initial is None:
        raise ConfigError("initial", "geodesic runs need an initial state")
    if scenario.hamiltonian is None:
        raise ConfigError("hamiltonian", "geodesic runs need a hamiltonian")
    every = max(1, _step_count(scenario.t0, scenario.t1, scenario.dt) // 256)
    traj = integrate(scenario.hamiltonian, scenario.initial, scenario.t0, scenario.t1,
                     scenario.dt, method=scenario.method, record_every=every)
    _write_trajectory(out, traj)
    report, records = _rate_report(scenario, traj)
    _dump(out / "rates.json", report)
    if not report["valid"]:
        print("invalid generator at t = %g; see rates.json"
              % report["first_invalid_time"], file=sys.stderr)
        return 2

    frozen = _RecordedRates(scenario.t0, float(traj.times[1] - traj.times[0]), *records)
    _write_paths(out, path_chunks(frozen, _to_s_chart(scenario.initial).rho, scenario.particles,
                                  scenario.t0, scenario.t1, seed=scenario.seed))
    return 0


def cmd_bridge(scenario: Scenario, out: Path, args) -> int:
    if scenario.rho0 is None or scenario.rho1 is None:
        raise ConfigError("marginals", "bridge runs need rho0 and rho1")
    if scenario.reference is None:
        raise ConfigError("reference", "bridge runs need reference rates")
    problem = BridgeProblem(scenario.reference, scenario.rho0, scenario.rho1,
                            reference_initial=scenario.reference_initial,
                            t0=scenario.t0, t1=scenario.t1)
    try:
        sol = solve_bridge(problem, dt=scenario.dt, tol=args.tol)
    except NonconvergedIPFP as exc:
        _dump(out / "bridge.json", {
            "converged": False,
            "residuals": [float(r) for r in exc.residuals],
            "history": [[float(a), float(b)] for a, b in exc.history],
        })
        print("bridge did not converge: %s" % exc, file=sys.stderr)
        return 3
    doc = {
        "iterations": sol.iterations,
        "residuals": [float(r) for r in sol.residuals],
        "entropy": sol.entropy,
        "objective": sol.objective,
        "coupling_entropy": sol.coupling_entropy,
        "grid": {"t0": scenario.t0, "t1": scenario.t1, "dt": scenario.dt},
        "times": sol.times,
        "f": sol.f,
        "g": sol.g,
        "rho": sol.rho,
        "m_hat": sol.m_hat,
    }
    if args.oracle is not None:
        brute = path_entropy_bruteforce(sol, args.oracle)
        target = relative_entropy(problem.rho0, problem.reference_initial) + sol.entropy
        doc["oracle"] = {"n_steps": args.oracle, "bruteforce": brute,
                         "target": target, "gap": brute - target}
    _dump(out / "bridge.json", doc)
    return 0


def cmd_simulate(scenario: Scenario, out: Path, args) -> int:
    if scenario.reference is None:
        raise ConfigError("reference", "simulate runs need a rate source")
    if scenario.initial is None:
        raise ConfigError("initial", "simulate runs need an initial density")
    rho0 = _to_s_chart(scenario.initial).rho
    chunks = path_chunks(scenario.reference, rho0, scenario.particles,
                         scenario.t0, scenario.t1, seed=scenario.seed)
    # markov.empirical_densities of the whole run, from counts summed chunk by chunk
    ts = np.linspace(scenario.t0, scenario.t1, scenario.checkpoints)
    counts = np.zeros((len(ts), scenario.reference.n), dtype=np.int64)

    def tally(chunk):
        counts[...] += chunk.counts_at(ts)

    _write_paths(out, chunks, tally)
    empirical = counts / scenario.particles
    master = [rho0]
    for a, b in zip(ts[:-1].tolist(), ts[1:].tolist()):
        master.append(master[-1] @ propagator(scenario.reference, a, b, dt=scenario.dt))
    master = np.array(master)
    tv = 0.5 * np.abs(empirical - master).sum(axis=1)
    _dump(out / "report.json", {
        "particles": scenario.particles,
        "seed": scenario.seed,
        "bound": 3.0 * np.sqrt(2.0 / scenario.particles),
        "max_tv": float(tv.max()),
        "checkpoints": [
            {"t": float(ts[k]), "tv": float(tv[k]),
             "empirical": empirical[k], "master": master[k]}
            for k in range(len(ts))],
    })
    return 0


def _floquet_span(scenario: Scenario) -> float | None:
    """The window analyze takes the Floquet spectrum over: the declared period,
    the horizon for a constant chain, else None. A ConfigError under t1 if
    monodromy's step would cross it in more steps than markov._MAX_STEPS, or
    if it is so short that 1 / window overflows, which would turn monodromy's
    exponents log(multiplier) / window into NaN."""
    if scenario.reference is None or (scenario.period is None and not scenario.reference.constant):
        return None
    # a constant chain still flags its stationary direction over the window
    span = scenario.period if scenario.period is not None else scenario.t1 - scenario.t0
    try:
        _step_count(0.0, span, _MONODROMY_DT)
    except ValueError as exc:
        raise ConfigError("t1", str(exc)) from exc
    if not np.isfinite(1.0 / float(span)):
        raise ConfigError("t1", "a Floquet window of %r is too short to divide by" % span)
    return span


def cmd_analyze(scenario: Scenario, out: Path, args) -> int:
    report = {}

    span = _floquet_span(scenario)
    if span is not None:
        mon = monodromy(scenario.reference, span)
        report["floquet"] = {
            "multipliers": [[float(z.real), float(z.imag)] for z in mon.multipliers],
            "exponents": [[float(z.real), float(z.imag)] for z in mon.exponents],
            "unit_flags": [bool(b) for b in mon.unit_flags],
            "has_unit_multiplier": bool(mon.has_unit_multiplier),
        }

    if scenario.reference is not None and scenario.reference.constant:
        star = stationary_point(scenario.reference)
        drho, dpot = vector_field(sbp_entropic(scenario.graph, scenario.reference), star)
        report["stationary"] = {
            "rho": star.rho,
            "field_residual": float(max(np.abs(drho).max(), np.abs(dpot).max())),
        }

    if scenario.hamiltonian is not None and scenario.initial is not None:
        spec = scenario.hamiltonian
        if spec.variant == "sbp_psi":
            # same flow through the log-density half-shift, same generator
            spec = sbp_entropic(scenario.graph, scenario.reference)
        try:
            res = markov_condition_residual(spec, _to_s_chart(scenario.initial),
                                            t=scenario.t0)
            report["markov_residual"] = {"max": float(res.max()),
                                         "entries": res}
        except (NonsmoothSpec, NoRateDecomposition) as exc:
            report["markov_residual"] = {"error": str(exc)}

    rho = (_to_s_chart(scenario.initial).rho if scenario.initial is not None
           else np.full(scenario.graph.n, 1.0 / scenario.graph.n))
    probe = PhasePoint(rho, np.zeros(scenario.graph.n))
    report["symplectic"] = {
        "hopf_cole": float(symplectic_check(hopf_cole, probe)),
        "madelung": float(symplectic_check(madelung, probe)),
    }

    _dump(out / "report.json", report)
    return 0


_COMMANDS = {
    "geodesic": cmd_geodesic,
    "bridge": cmd_bridge,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("args", message)


def _positive(cast):
    """An argparse type: text cast to a finite number above 0."""
    def parse(text):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError("%r is not a finite number above 0" % text)
        return value
    parse.__name__ = cast.__name__
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphham",
                     description="Hamiltonian flows and bridges on finite graphs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config path or built-in scenario name")
        p.add_argument("--out", default=None, help="output directory")
        # a subcommand takes only the flags it reads
        if name != "analyze":
            p.add_argument("--dt", type=float)
        if name == "bridge":
            p.add_argument("--tol", type=_positive(float), default=1e-8)
            p.add_argument("--oracle", type=_positive(int),
                           help="brute-force step count for the bridge cross-check")
        elif name != "analyze":
            p.add_argument("--particles", type=int)
            p.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        scenario = load_config(args.config)
        for key in ("dt", "particles", "seed"):
            if getattr(args, key, None) is not None:
                setattr(scenario, key, config_number(key, getattr(args, key)))
        check_horizon(scenario)
        if args.command == "analyze":
            _floquet_span(scenario)      # refuse the window before any artifact
        out = Path(args.out) if args.out else Path("runs") / (
            "%s-%s" % (args.command, scenario.name))
        out.mkdir(parents=True, exist_ok=True)
        _write_run(out, args.command, scenario)
        return _COMMANDS[args.command](scenario, out, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except RateBoundExceeded as exc:
        print("sampler bound violated: %s" % exc, file=sys.stderr)
        return 4
    except GraphHamError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
