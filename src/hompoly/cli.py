"""Command-line entry points: classify, poly, verify, genus, report.

All structured output is JSON with sorted keys.  Exit codes: 0 on success
(and all lemmas passing for verify), 1 when a verification mismatch occurs,
2 on usage or input errors.  Report files are byte-stable across runs.  The
verify runner times each lemma call; those wall times are only included with
--timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import reductions, topo
from .errors import BudgetExceededError, PipelineIntegrityError
from .genfun import VariableModel, hom_poly, parse_model
from .graphs import Graph, parse_class
from .poly import Polynomial, var_to_str

LEMMAS = ("cycles-even", "tree-matching", "outerplanar-star",
          "planar-permutation", "genus-block", "genus-chain")

TARGETS = {
    "c4": Graph.cycle(4),
    "k4": Graph.complete(4),
    "c6": Graph.cycle(6),
    "k33": Graph.complete_bipartite(3, 3),
    "c8": Graph.cycle(8),
    "k6": Graph.complete(6),
}


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_json_obj(json.load(fh))


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _dump_poly(p: Polynomial) -> str:
    """The text of _dump(p.to_json_obj()), byte for byte.

    Each distinct [var, exp] entry and each distinct coefficient is
    formatted once; the terms are then joined from those pieces.
    """
    entries: dict = {}
    coeffs: dict = {}
    terms = []
    for m, c in p.sorted_terms():
        ctext = coeffs.get(c)
        if ctext is None:
            ctext = coeffs[c] = json.dumps(str(Fraction(c)))
        parts = []
        for v, e in m:
            etext = entries.get((v, e))
            if etext is None:
                name = json.dumps(var_to_str(v))
                etext = entries[v, e] = f"      [\n        {name},\n        {e}\n      ]"
            parts.append(etext)
        vtext = "[\n" + ",\n".join(parts) + "\n    ]" if parts else "[]"
        terms.append(f'  {{\n    "coeff": {ctext},\n    "vars": {vtext}\n  }}')
    return "[\n" + ",\n".join(terms) + "\n]" if terms else "[]"


def cmd_classify(args) -> int:
    h = _load_graph(args.h_file)
    cls = parse_class(args.graph_class, args.k)
    result = reductions.classify(h, cls)
    print(_dump(result.to_json_obj()))
    return 0


def cmd_poly(args) -> int:
    h = _load_graph(args.h_file)
    cls = parse_class(args.graph_class, args.k)
    p = hom_poly(h, args.n, cls, parse_model(args.model))
    print(_dump_poly(p))
    return 0


def cmd_genus(args) -> int:
    g = _load_graph(args.graph_file)
    if topo.is_planar(g):
        out = {"genus": 0, "planar": True}
    else:
        genus, rot = topo.min_genus_rotation(g, budget=args.budget)
        out = {"genus": genus, "planar": False,
               "rotation": topo.rotation_to_json_obj(rot)}
    print(_dump(out))
    return 0


def _or(value, default):
    return default if value is None else value  # an explicit 0 stays 0


def _run_lemma(lemma: str, args) -> reductions.ReductionReport:
    h = _load_graph(args.h_file) if args.h_file else None
    if lemma == "cycles-even":
        return reductions.reduce_cycles(h or Graph.single_edge(), _or(args.n, 4))
    if lemma == "tree-matching":
        return reductions.reduce_trees(h or Graph.single_edge(),
                                       TARGETS[args.target])
    if lemma == "outerplanar-star":
        return reductions.reduce_outerplanar(h or Graph.complete(3), _or(args.n, 6))
    if lemma == "planar-permutation":
        return reductions.reduce_planar(h or Graph.complete(3), _or(args.m, 4))
    if lemma == "genus-block":
        return reductions.genus_block_report()
    if lemma == "genus-chain":
        return reductions.reduce_genus(h or Graph.complete(3),
                                       _or(args.k, 1), _or(args.m, 4))
    raise ValueError(lemma)


def _report_table(reports) -> str:
    lines = ["lemma                 equal  produced  expected  circuit",
             "-" * 56]
    for r in reports:
        lines.append(f"{r.lemma_id:<22}{str(r.equal):<7}"
                     f"{len(r.produced):<10}{len(r.expected):<10}"
                     f"{r.circuit_size if r.circuit_size is not None else '-'}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    # argparse's choices rejected unknown ids; a repeated id runs once
    lemmas = list(dict.fromkeys(args.lemma or LEMMAS))

    def run(name: str) -> reductions.ReductionReport:
        t0 = time.perf_counter()
        report = _run_lemma(name, args)
        report.wall_time = time.perf_counter() - t0
        return report

    reports = sorted((run(name) for name in lemmas), key=lambda r: r.lemma_id)

    payload = _dump({"reports": [r.to_json_obj(include_timing=args.timings)
                                 for r in reports],
                     "all_equal": all(r.equal for r in reports)})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(_report_table(reports))
    for r in reports:
        if r.caveat:
            print(f"caveat [{r.lemma_id}]: {r.caveat}")
    return 0 if all(r.equal for r in reports) else 1


def cmd_report(args) -> int:
    with open(args.report_file) as fh:
        data = json.load(fh)
    rows = data.get("reports", []) if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError("a report file is a JSON object whose reports are a "
                         "list of objects")
    for key in ("lemma", "equal", "produced_terms", "expected_terms"):
        if not all(key in r for r in rows):
            raise ValueError(f"a report row has no {key!r}")
    print("lemma                 equal  produced  expected")
    print("-" * 48)
    for r in rows:
        print(f"{r['lemma']:<22}{str(r['equal']):<7}"
              f"{r['produced_terms']:<10}{r['expected_terms']}")
    return 0 if data.get("all_equal") else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hompoly",
                                 description="homomorphism polynomial workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dichotomy classification for H and a class")
    p.add_argument("h_file")
    p.add_argument("graph_class")
    p.add_argument("--k", type=int, default=None, help="genus parameter")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("poly", help="print the class polynomial restricted to H")
    p.add_argument("h_file")
    p.add_argument("graph_class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--model", choices=[m.value for m in VariableModel],
                   default="edge")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("verify", help="run reduction pipelines against oracles")
    p.add_argument("--lemma", action="append", choices=LEMMAS,
                   help="lemma id (repeatable); default: all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--target", choices=sorted(TARGETS), default="k4")
    p.add_argument("--h-file", default=None, help="graph JSON for H")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the report file")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("genus", help="minimum genus by rotation-system search")
    p.add_argument("graph_file")
    p.add_argument("--budget", type=int, default=topo.DEFAULT_GENUS_BUDGET,
                   help="largest rotation search space to try; a larger "
                        "one fails with exit 2")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("report", help="render a verify report file")
    p.add_argument("report_file")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError,
            BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineIntegrityError as exc:
        print(f"pipeline integrity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
