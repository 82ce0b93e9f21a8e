"""Paired benchmark runs of two checkouts, for a speed claim.

    python3 tests/bench_pairs.py PARENT CHANGE --workload W --seeds A-B \\
        --seconds S [--out BENCH_<pr>.json]

PARENT and CHANGE are two checkouts of this repository.  For each seed from
A to B, each checkout's own perfbench/run.py runs the workload once (with
--trace 0), with that checkout as the working directory, so each side times
its own src/.  Which side runs first alternates from seed to seed.  A pair
in which either side reads "correct": false, or exits nonzero, is refused:
the script stops with exit code 1 and writes nothing.

For every end-to-end metric the result gives each side's median and
quartiles, the pairs the change read better in (ties count for neither),
whether the medians differ by more than the parent's interquartile range,
and whether a gain holds by the rule the benchmark guide sets: the change
better in at least nine tenths of the pairs and the median gap, in the
metric's better direction, above the parent's IQR.  Each side's provenance
line, as run.py prints it for the first seed, is kept with the src/ digest
that every run of that side must share, and each pair records how many
commands each side ran in its --seconds.

The result goes to stdout as JSON.  With --out it is also stored in that
file under "workloads"/W, next to the workloads stored there before, so one
file collects a claim's runs on every workload.  pytest does not collect
this file; tests/test_bench_pairs.py runs it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800
SIDES = ("parent", "change")


class RefusedPair(Exception):
    """A run that failed or read correct: false; its pair is not reported."""


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(provenance, result) of one perfbench/run.py run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RefusedPair(f"{checkout} seed {seed}: run.py exited {proc.returncode}: "
                          f"{proc.stderr[-400:].strip()}")
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), None)
    result = json.loads(lines[-1])
    if provenance is None or result.get("correct") is not True:
        raise RefusedPair(f"{checkout} seed {seed}: correct is "
                          f"{result.get('correct')!r}, failed {result.get('failed')!r}")
    return provenance, result


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's quartiles, the change's wins and the claim."""
    out = {}
    for name in pairs[0]["parent"]:
        sign = 1 if better.get(name, "lower") == "lower" else -1
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = sum(sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"]))
        gap = stats["parent"]["median"] - stats["change"]["median"]
        exceeds = abs(gap) > stats["parent"]["iqr"]
        out[name] = {"better": better.get(name, "lower"), **stats, "wins": wins,
                     "pairs": len(pairs), "gap_exceeds_parent_iqr": exceeds,
                     "gain_holds": 10 * wins >= 9 * len(pairs) and exceeds
                     and sign * gap > 0}
    return out


def bench_pairs(checkouts: dict, workload: str, seeds: range, seconds: float) -> dict:
    """The paired result for one workload; RefusedPair on a refused pair."""
    pairs, provenance = [], {}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0], "attempted": {}}
        for side in order:
            prov, result = run_side(checkouts[side], workload, seed, seconds)
            first = provenance.setdefault(side, prov)
            if prov["src_sha256"] != first["src_sha256"]:
                raise RefusedPair(f"{side} src/ changed during the runs (seed {seed})")
            pair[side] = {k: m["value"] for k, m in result["metrics"].items()}
            pair["attempted"][side] = result["attempted"]
        pairs.append(pair)
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    return {"seeds": [seeds.start, seeds.stop - 1], "seconds": seconds,
            "provenance": provenance, "metrics": summarize(pairs, better),
            "pairs": pairs}


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        result = bench_pairs(checkouts, args.workload, args.seeds, args.seconds)
    except RefusedPair as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=1))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored.setdefault("workloads", {})[args.workload] = result
        stored["workloads"] = dict(sorted(stored["workloads"].items()))
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
