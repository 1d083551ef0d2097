"""graphham benchmark: time to a checked result for CLI workloads.

    python3 perfbench/run.py --workload periodic-flow --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the benchmark imports graphham from
./src and calls `graphham.cli.main` in its own process, the way a user's
invocation runs, with `--out` directories it owns under ./.perfbench/.

A run repeats rounds while another one still fits in --seconds: a fresh
interpreter imports graphham and resolves the workload's configs (a
`setup_s` sample), then a pass runs the workload's invocations. After each
invocation the artifacts are checked, hashed and deleted; an invocation
that exits with an unexpected code, fails a check, or whose artifact
digests differ from an earlier pass of the same run counts as failed.

--trace 0 prints the end-to-end metrics: `setup_s`, `pass_s` (wall time of
one pass, median over passes) and `peak_rss_mb`. --trace 1 runs one pass
untraced and one pass with spans recorded around graphham's public
functions, and prints the per-layer metrics. The last line of stdout is
the JSON result; the run record (versions, samples, digests, per
invocation times, hot spots) goes to .perfbench/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("geodesic", "analyze", "simulate", "bridge")

# imports graphham and resolves every config of a workload in a fresh
# interpreter; interpreter start-up itself is not counted
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import graphham
for source in sys.argv[2:]:
    graphham.load_config(source)
print(repr(time.perf_counter() - start))
"""


def _import_graphham(src: Path):
    """graphham.cli from this source tree, or SystemExit if it is not here."""
    if not (src / "graphham" / "__init__.py").is_file():
        raise SystemExit("perfbench: no graphham package under %s" % src)
    sys.path.insert(0, str(src))
    import graphham.cli
    if not Path(graphham.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit("perfbench: graphham was imported from %s, not %s"
                         % (graphham.cli.__file__, src))
    return graphham.cli


def _setup_seconds(src: Path, configs: list) -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(src), *configs],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _digests(out: Path) -> dict:
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        found[str(path.relative_to(out))] = [hashlib.sha256(data).hexdigest(), len(data)]
    return found


def _count_jumps(out: Path) -> int:
    path = out / "paths.jsonl"
    if not path.exists():
        return 0
    with open(path) as fh:
        return sum(len(json.loads(line)["jump_times"]) for line in fh)


class Run:
    """Invocations, their outcomes and digests across the passes of one run."""

    def __init__(self, main, invocations: list, scratch: Path):
        self.main = main
        self.invocations = invocations
        self.scratch = scratch
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}
        self.jumps = 0

    def invoke(self, index: int, inv, tracer: Tracer | None = None) -> float:
        out = self.scratch / inv.name
        shutil.rmtree(out, ignore_errors=True)
        argv = list(inv.argv) + ["--out", str(out)]
        problems = []
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.main(argv)
            else:
                tracer.invocation = index
                code = tracer.call("cli.main", self.main, argv)
        except Exception:
            code = None
            problems.append("raised:\n" + traceback.format_exc())
        wall = time.perf_counter() - start
        self.attempted += 1
        if code != inv.expect and code is not None:
            problems.append("exit code %r, expected %r" % (code, inv.expect))
        if code == inv.expect:
            for check in inv.checks:
                try:
                    message = check(out)
                except Exception:
                    message = "%s raised:\n%s" % (check.__name__, traceback.format_exc())
                if message:
                    problems.append(message)
        digests = _digests(out) if out.exists() else {}
        first = self.digests.setdefault(inv.name, digests)
        if digests != first:
            problems.append("artifacts differ from an earlier pass of the same run")
        if tracer is not None:
            self.jumps += _count_jumps(out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failures.append({"invocation": inv.name, "problems": problems})
            print("perfbench: %s failed: %s" % (inv.name, "; ".join(problems)),
                  file=sys.stderr)
        return wall

    def one_pass(self, tracer: Tracer | None = None) -> dict:
        return {inv.name: self.invoke(i, inv, tracer)
                for i, inv in enumerate(self.invocations)}


def _by_subcommand(invocations: list, walls: dict) -> dict:
    return {cmd: sum(walls[inv.name] for inv in invocations if inv.command == cmd)
            for cmd in SUBCOMMANDS}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {key: blas.get(key) for key in ("name", "version")}


def _report_digest_changes(previous: Path, digests: dict) -> None:
    """Say which invocations' artifacts changed since the last recorded run
    of this workload and seed; a change across commits is not a failure."""
    try:
        before = json.loads(previous.read_text()).get("digests", {})
    except (OSError, ValueError):
        return
    changed = sorted(name for name, d in digests.items()
                     if name in before and before[name] != d)
    if changed:
        print("perfbench: artifact digests changed since the last record: %s"
              % ", ".join(changed), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


def _timed_passes(run: Run, seconds: float, probe_setup) -> tuple:
    """Set-up probes and passes, one of each per round, while another round
    still fits in `seconds`; at least one. Spreading the set-up probes over
    the run, rather than taking them back to back, keeps one slow moment of
    a shared host from setting the run's setup_s."""
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append(probe_setup())
        passes.append(run.one_pass())
        cost = time.perf_counter() - began
        if time.perf_counter() - start + cost > seconds:
            return setup, passes


def _traced_pass(run: Run, untraced: dict, work: Path, record: dict) -> dict:
    """Per-layer metrics of one pass recorded with spans; the spans are saved
    to work/spans.npz and the per-invocation hot spots go to the record."""
    tracer = Tracer()
    with tracer.patched():
        traced = run.one_pass(tracer)
    spans = tracer.spans()
    np.savez(work / "spans.npz", span_names=np.array(tracer.names), **spans)
    names = [inv.name for inv in run.invocations]
    record.update({"spans": int(len(spans["ids"])), "traced_pass": traced,
                   "hotspots": layers.hotspots(spans, tracer.names, names)})
    metrics = layers.layer_metrics(spans, tracer.names, run.jumps)
    metrics["cli.artifact_bytes"] = float(sum(
        size for found in run.digests.values() for _, size in found.values()))
    metrics["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
    for cmd, wall in _by_subcommand(run.invocations, untraced).items():
        metrics["cli.%s_s" % cmd] = float(wall)
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> int:
    src = (ROOT / "src").resolve()
    cli = _import_graphham(src)
    work = ROOT / ".perfbench" / ("%s-seed%d" % (workload, seed))
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "spans.npz").unlink(missing_ok=True)
    invocations = workloads.build(workload, seed, work / "configs", toy=toy)
    configs = workloads.configs(invocations)

    run = Run(cli.main, invocations, work / "out")
    record = {}
    if trace:
        setup, passes = [], [run.one_pass()]
        metrics = _traced_pass(run, passes[0], work, record)
    else:
        setup, passes = _timed_passes(run, seconds, lambda: _setup_seconds(src, configs))
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(sum(p.values()) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(work / "out", ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "nproc": os.cpu_count(),
        # the sampler's pool size when --threads is not given, as cli.main sets it
        "threads_default": os.cpu_count() or 1,
        "configs": configs,
        "samples": {"setup_s": len(setup), "pass_s": len(passes)},
        "setup_s": setup,
        "passes": [{"by_subcommand": _by_subcommand(invocations, p), "invocations": p}
                   for p in passes],
        "digests": run.digests,
        "failures": run.failures,
        "result": result,
    })
    record_path = work / "record.json"
    _report_digest_changes(record_path, run.digests)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
