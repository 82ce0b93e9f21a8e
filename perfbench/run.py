"""hompoly benchmark: CLI workloads timed end to end, with an optional traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs through ``hompoly.cli.main(argv)`` in its own fresh
interpreter (``perfbench/child.py``), as a CLI user runs it. A pass runs the
workload's commands once; passes repeat until the next would end after
``--seconds``. Inputs are written from hompoly's own graph constructors with
vertex labels permuted by the seed, and every output is checked. Each child
times a small fixed computation every 20 ms, and command and set-up times are
scaled by it to a fixed host speed (``host_scaled``), so a neighbour slowing
the shared host does not show as a slower program.

With ``--trace 0`` the last line reports the end-to-end metrics of the
untraced passes. With ``--trace 1`` untraced and traced passes alternate and
the last line reports the per-layer metrics of the median traced pass. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"
COMMAND_TIMEOUT_S = 150


# -- output checks ------------------------------------------------------------

def trees_in_complete(n: int) -> int:
    """Trees with at least one edge in K_n: sum over k of C(n,k) k^(k-2) (Cayley)."""
    return sum(comb(n, k) * k ** (k - 2) for k in range(2, n + 1))


def cycles_to_odd_cycle(n: int, length: int) -> int:
    """Cycles of K_n homomorphic to the odd cycle C_length: those of even
    length or of length at least `length`; K_n has C(n,L)(L-1)!/2 of length L."""
    return sum(comb(n, L) * factorial(L - 1) // 2 for L in range(3, n + 1)
               if L % 2 == 0 or L >= length)


def check_verify(rc, stdout: Path, out: Path) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    return None if report.get("all_equal") is True else "all_equal is not true"


def check_terms(expected: int):
    def check(rc, stdout: Path, out: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            terms = json.loads(stdout.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable polynomial: {exc}"
        if len(terms) != expected:
            return f"{len(terms)} terms, expected {expected}"
        if any(t["coeff"] != "1" for t in terms):
            return "a coefficient is not 1"
        return None
    return check


def check_genus(expected: int):
    def check(rc, stdout: Path, out: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            genus = json.loads(stdout.read_text())["genus"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable genus output: {exc}"
        return None if genus == expected else f"genus {genus}, expected {expected}"
    return check


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple   # "@K3" names an input file, "@out" the command's --out file
    check: Callable


def _verify(name: str, *args: str) -> Command:
    return Command(name, ("verify", *args, "--out", "@out"), check_verify)


WORKLOADS = {
    "gadget-planarity": (
        _verify("outerplanar-n7", "--lemma", "outerplanar-star", "--n", "7",
                "--h-file", "@K3"),
        _verify("outerplanar-buddy-n6", "--lemma", "outerplanar-star", "--n", "6",
                "--h-file", "@K2"),
        _verify("planar-m6", "--lemma", "planar-permutation", "--m", "6",
                "--h-file", "@K2"),
    ),
    "tree-matching": (
        _verify("trees-k33", "--lemma", "tree-matching", "--target", "k33",
                "--h-file", "@K2"),
        _verify("trees-k4", "--lemma", "tree-matching", "--target", "k4",
                "--h-file", "@K2"),
        _verify("trees-c6", "--lemma", "tree-matching", "--target", "c6",
                "--h-file", "@K2"),
        _verify("trees-c4", "--lemma", "tree-matching", "--target", "c4",
                "--h-file", "@K3"),
    ),
    "genus": (
        _verify("genus-block-chain", "--lemma", "genus-block", "--lemma",
                "genus-chain", "--k", "2", "--m", "5", "--h-file", "@K3"),
        _verify("genus-chain-k2", "--lemma", "genus-chain", "--k", "2", "--m", "5",
                "--h-file", "@K2"),
        Command("genus-of-block", ("genus", "@block"), check_genus(1)),
    ),
    "poly-export": (
        Command("poly-trees-k7", ("poly", "@K3", "tree", "--n", "7"),
                check_terms(trees_in_complete(7))),
        Command("poly-cycles-k8", ("poly", "@C5", "cycle", "--n", "8"),
                check_terms(cycles_to_odd_cycle(8, 5))),
    ),
}


def write_inputs(seed: int, work: Path) -> dict:
    """H graphs K2, K3, C5 and the genus block, vertex labels permuted by seed."""
    from hompoly.gadgets import genus_block
    from hompoly.graphs import Graph
    rng = random.Random(seed)
    graphs = {"K2": Graph.complete(2), "K3": Graph.complete(3),
              "C5": Graph.cycle(5), "block": genus_block().graph}
    paths = {}
    for name, g in graphs.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph.make(g.n, [(perm[u], perm[v]) for u, v in g.edges],
                               [perm[v] for v in g.loops],
                               {role: perm[v] for role, v in g.labels})
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(relabeled.to_json_obj()))
    return paths


# -- running commands ---------------------------------------------------------

# The speed probe's duration (harmonic mean over a command) on the host the
# benchmark was tuned on: 2 vCPUs of a shared Intel Xeon, Python 3.11.
PROBE_NOMINAL_S = 0.00028


def host_scaled(duration: float, samples: list) -> float:
    """`duration` less the probe's ticks, at the nominal host speed.

    `samples` holds (tick_s, probe_s) pairs from the child's speed probe. The
    probe's work is fixed, so probe_s measures how slowly the host ran the
    process; the harmonic mean of probe_s is the probe's duration at the
    window's mean speed. With no sample the duration is returned as is.
    """
    if not samples:
        return duration
    probe_s = len(samples) / sum(1 / p for _, p in samples)
    return (duration - sum(t for t, _ in samples)) * PROBE_NOMINAL_S / probe_s


@dataclass
class Sample:
    command: str
    error: str | None
    setup_s: float | None = None   # interpreter spawn -> cli.main entry, scaled
    wall_s: float | None = None    # cli.main entry -> return, scaled
    maxrss_kb: int | None = None
    trace: dict | None = None
    raw_wall_s: float | None = None  # wall_s as the clock read it


def run_command(cmd: Command, inputs: dict, work: Path, trace: bool) -> Sample:
    out = work / f"{cmd.name}.out.json"
    stdout = work / f"{cmd.name}.stdout"
    stderr = work / f"{cmd.name}.stderr"
    record_path = work / f"{cmd.name}.record.json"
    for stale in (out, record_path):
        stale.unlink(missing_ok=True)
    argv = [str(out) if a == "@out" else str(inputs[a[1:]]) if a.startswith("@") else a
            for a in cmd.argv]
    with open(stdout, "w") as fh_out, open(stderr, "w") as fh_err:
        spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(record_path), str(int(trace)), *argv],
                cwd=ROOT, stdout=fh_out, stderr=fh_err, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Sample(cmd.name, f"timed out after {COMMAND_TIMEOUT_S} s")
    if proc.returncode != 0 or not record_path.exists():
        tail = stderr.read_text()[-400:].strip()
        return Sample(cmd.name, f"runner exited {proc.returncode}: {tail}")
    record = json.loads(record_path.read_text())
    error = record["error"] or cmd.check(record["rc"], stdout, out)
    probes = record["probes"]
    setup = [(t, p) for start, t, p in probes if start < record["entry"]]
    command = [(t, p) for start, t, p in probes if start >= record["entry"]] or setup
    raw_wall = record["exit"] - record["entry"]
    return Sample(cmd.name, error, host_scaled(record["entry"] - spawn, setup),
                  host_scaled(raw_wall, command), record["maxrss_kb"],
                  record["trace"], raw_wall)


def warm_up() -> None:
    """One unmeasured import, so bytecode compilation is not timed."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                    " import hompoly.cli", str(SRC)], cwd=ROOT, check=True,
                   timeout=COMMAND_TIMEOUT_S)


# -- metrics ------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}

# traced function -> which of calls / self_s to report
PER_FUNCTION = {
    "topo.is_planar": ("calls", "self_s"),
    "topo.is_outerplanar": ("calls", "self_s"),
    "topo.min_genus_rotation": ("calls", "self_s"),
    "topo.genus_of_rotation": ("calls", "self_s"),
    "topo.find_minor": ("calls", "self_s"),
    "graphs.recognize": ("calls", "self_s"),
    "graphs.is_homomorphic": ("calls", "self_s"),
    "graphs.subset_in_class": ("calls", "self_s"),
    "reductions.budget_survivors": ("calls", "self_s"),
    "reductions.reduce_trees": ("self_s",),
    "reductions.block_certificates": ("calls",),
    "reductions.chain_rotation": ("calls",),
    "genfun.hom_poly": ("self_s",),
    "genfun.generating_function": ("self_s",),
    "poly.Polynomial.__mul__": ("self_s",),
    "poly.Polynomial.__add__": ("self_s",),
    "poly.Polynomial.substitute": ("self_s",),
    "poly.Polynomial.homogeneous_component": ("self_s",),
    "circuit.eval_symbolic": ("calls", "self_s"),
    "circuit.interpolate_homc": ("self_s",),
    "circuit.extract_homc": ("self_s",),
}
# Polynomial methods are reported under the operation's name
METRIC_PREFIX = {"poly.Polynomial.__mul__": "poly.mul",
                 "poly.Polynomial.__add__": "poly.add",
                 "poly.Polynomial.substitute": "poly.substitute",
                 "poly.Polynomial.homogeneous_component": "poly.homogeneous_component"}
MODULES = ("topo", "graphs", "reductions", "genfun", "poly", "circuit", "cli",
           "gadgets")


def _pass_wall(samples: list) -> float:
    """The pass's command times as the clock read them, summed."""
    return sum(s.raw_wall_s for s in samples if s.raw_wall_s is not None)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _wall(passes: list) -> float:
    """Sum over the workload's commands of each command's median scaled time."""
    times: dict = {}
    for samples in passes:
        for s in samples:
            if s.wall_s is not None:
                times.setdefault(s.command, []).append(s.wall_s)
    return sum(statistics.median(t) for t in times.values())


def end_to_end(untraced: list, attempted: int, failed: int) -> dict:
    samples = [s for p in untraced for s in p]
    rss = [s.maxrss_kb for s in samples if s.maxrss_kb is not None]
    values = {
        "wall_s": _wall(untraced),
        "setup_s": _median([s.setup_s for s in samples if s.setup_s is not None]),
        "peak_rss_mb": max(rss) / 1024 if rss else 0.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _merge_traces(samples: list) -> tuple[dict, dict]:
    """Per-function [calls, self_s] and counters summed over one pass."""
    stats: dict = {}
    counters: dict = {}
    for s in samples:
        if s.trace is None:
            continue
        for key, (calls, self_s) in s.trace["stats"].items():
            acc = stats.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, value in s.trace["counters"].items():
            combine = max if key == "circuit.gates_max" else (lambda a, b: a + b)
            counters[key] = combine(counters.get(key, 0), value)
    return stats, counters


def per_layer(untraced: list, traced: list) -> dict:
    """Metrics of the median traced pass, so its self times add up to its wall."""
    chosen = sorted(traced, key=_pass_wall)[(len(traced) - 1) // 2]
    stats, counters = _merge_traces(chosen)
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for key, fields in PER_FUNCTION.items():
        name = METRIC_PREFIX.get(key, key)
        calls, self_s = stats.get(key, (0, 0.0))
        if "calls" in fields:
            put(f"{name}.calls", calls, "count")
        if "self_s" in fields:
            put(f"{name}.self_s", self_s, "s")
    hom_calls = stats.get("graphs.is_homomorphic", (0, 0.0))[0]
    put("graphs.is_homomorphic.true_ratio",
        counters.get("is_homomorphic.true", 0) / hom_calls if hom_calls else 0.0, "ratio")
    candidates = counters.get("budget_survivors.candidates", 0)
    survivors = counters.get("budget_survivors.survivors", 0)
    put("reductions.budget_survivors.candidates", candidates, "count")
    put("reductions.budget_survivors.survivors", survivors, "count")
    put("reductions.budget_survivors.yield",
        survivors / candidates if candidates else 0.0, "ratio")
    put("genfun.hom_poly.terms", counters.get("hom_poly.terms", 0), "count")
    put("circuit.gates_max", counters.get("circuit.gates_max", 0), "count")

    module_self = {m: sum(v[1] for k, v in stats.items() if k.startswith(m + "."))
                   for m in MODULES}
    for m, self_s in module_self.items():
        put(f"{m}.self_s", self_s, "s")
    wall = _pass_wall(chosen)
    put("trace.wall_s", wall, "s")
    put("trace.unattributed_s", wall - sum(module_self.values()), "s")
    put("trace.overhead_s", _wall(traced) - _wall(untraced), "s")
    return out


# -- provenance ---------------------------------------------------------------

def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import networkx
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "clock": "time.perf_counter"}


# -- running a workload -------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes of the workload for about `seconds`; return the result."""
    commands = WORKLOADS[workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = write_inputs(seed, work)
        warm_up()
        passes: dict = {False: [], True: []}
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                passes[traced].append([run_command(c, inputs, work, traced)
                                       for c in commands])
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = passes[False] + passes[True]
    errors = [s for p in samples for s in p if s.error]
    attempted = sum(len(p) for p in samples)
    metrics = per_layer(passes[False], passes[True]) if trace \
        else end_to_end(passes[False], attempted, len(errors))
    return {"passes": passes, "errors": errors,
            "result": {"correct": not errors, "attempted": attempted,
                       "failed": len(errors), "metrics": metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hompoly" / "__init__.py").is_file():
        print(f"error: no hompoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    print("provenance " + json.dumps(provenance(args.workload, args.seed,
                                                args.seconds, trace)))
    run = measure(args.workload, args.seed, args.seconds, trace)
    for traced, passes in run["passes"].items():
        for i, samples in enumerate(passes):
            times = " ".join(f"{s.command}={s.wall_s:.3f}s(clock {s.raw_wall_s:.3f}s)"
                             if s.wall_s is not None
                             else f"{s.command}=failed" for s in samples)
            print(f"{'traced' if traced else 'untraced'} pass {i}: {times}")
    for s in run["errors"]:
        print(f"check failed: {s.command}: {s.error}")
    result = run["result"]
    print(f"fail_ratio {result['failed'] / result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
