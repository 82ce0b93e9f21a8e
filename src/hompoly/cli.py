"""Command-line entry points: classify, poly, verify, genus, report.

All structured output is JSON with sorted keys.  Exit codes: 0 on success
(and all lemmas passing for verify), 1 when a verification mismatch occurs,
2 on usage or input errors.  Report files are byte-stable across runs.  The
verify runner times each lemma call; those wall times are only included with
--timings.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
import time
from fractions import Fraction

from . import reductions, topo
from .errors import BudgetExceededError, PipelineIntegrityError
from .genfun import VariableModel, hom_poly
from .graphs import Graph, parse_class
from .poly import Polynomial, _chunk_tables, _mask_join, var_to_str

LEMMAS = tuple(reductions.LEMMA_SIZES)

TARGETS = {
    "c4": Graph.cycle(4),
    "k4": Graph.complete(4),
    "c6": Graph.cycle(6),
    "k33": Graph.complete_bipartite(3, 3),
    "c8": Graph.cycle(8),
    "k6": Graph.complete(6),
}


def _choice(names) -> dict:
    """add_argument keywords taking one of names: unlike argparse's choices,
    the invalid-choice message is the same on every Python."""
    def check(name: str) -> str:
        if name not in names:
            choices = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {name!r} (choose from {choices})")
        return name
    return {"type": check, "metavar": "{" + ",".join(names) + "}"}


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.from_json_obj(json.load(fh))


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _poly_pieces(p: Polynomial):
    """The text of _dump(p.to_json_obj()) in pieces: an opening, one per
    term, and a closing.

    The terms come as Polynomial.mask_terms gives them, in sorted_terms
    order; a polynomial from hom_poly holds them so, as masks, and no
    monomial tuple is built.  Each (var, exp) entry's text is formatted once
    into per-byte tables, so a term's entries are joined from one table
    entry per byte of its mask, and each distinct coefficient is formatted
    once, on its first lookup.
    """
    pairs, terms = p.mask_terms()
    # each entry's text leads with its separator, which a term's first drops
    tabs = _chunk_tables([f",\n      [\n        {json.dumps(var_to_str(v))},"
                          f"\n        {e}\n      ]" for v, e in pairs], "", operator.add)
    coeff_text = functools.cache(lambda c: json.dumps(str(Fraction(c))))
    sep = "[\n"
    for mask, c in terms:
        vtext = "[\n" + _mask_join(tabs, mask, "")[2:] + "\n    ]" if mask else "[]"
        yield f'{sep}  {{\n    "coeff": {coeff_text(c)},\n    "vars": {vtext}\n  }}'
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n]"


def _dump_poly(p: Polynomial) -> str:
    """The text of _dump(p.to_json_obj()), byte for byte: the join of
    _poly_pieces, which `hompoly poly` writes a run of pieces at a time."""
    return "".join(_poly_pieces(p))


def cmd_classify(args) -> int:
    h = _load_graph(args.h_file)
    cls = parse_class(args.graph_class, args.k)
    result = reductions.classify(h, cls)
    print(_dump(result.to_json_obj()))
    return 0


def cmd_poly(args) -> int:
    h = _load_graph(args.h_file)
    cls = parse_class(args.graph_class, args.k)
    p = hom_poly(h, args.n, cls, VariableModel(args.model))
    # a write of 256 terms' text passes stdout's 8 KB buffers by, so the
    # output takes one system call per 256 terms rather than one per 8 KB
    pieces = _poly_pieces(p)
    while text := "".join(itertools.islice(pieces, 256)):
        sys.stdout.write(text)
    sys.stdout.write("\n")
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


def _run_lemma(lemma: str, args) -> reductions.ReductionReport:
    h = _load_graph(args.h_file) if args.h_file else None
    sizes = {key: default if vars(args)[key] is None else vars(args)[key]
             for key, (default, _) in reductions.LEMMA_SIZES[lemma].items()}
    if lemma == "cycles-even":
        return reductions.reduce_cycles(h or Graph.single_edge(), **sizes)
    if lemma == "tree-matching":
        return reductions.reduce_trees(h or Graph.single_edge(),
                                       TARGETS[args.target or "k4"])
    if lemma == "outerplanar-star":
        return reductions.reduce_outerplanar(h or Graph.complete(3), **sizes)
    if lemma == "planar-permutation":
        return reductions.reduce_planar(h or Graph.complete(3), **sizes)
    if lemma == "genus-block":
        return reductions.genus_block_report()
    if lemma == "genus-chain":
        return reductions.reduce_genus(h or Graph.complete(3), **sizes)
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
    # argparse rejected unknown lemma and target ids; a repeated id runs once
    lemmas = list(dict.fromkeys(args.lemma or LEMMAS))
    read = {key for name in lemmas for key in reductions.LEMMA_SIZES[name]}
    read |= {"target"} if "tree-matching" in lemmas else set()
    for key in ("n", "k", "m", "target"):
        if vars(args)[key] is not None and key not in read:
            raise ValueError(f"no selected lemma reads --{key}")
    if args.timings and not args.out:
        raise ValueError("--timings adds wall times to the --out file; give --out")

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
    for key, kind in (("lemma", str), ("equal", bool), ("produced_terms", int),
                      ("expected_terms", int)):
        if not all(key in r for r in rows):
            raise ValueError(f"a report row has no {key!r}")
        if not all(type(r[key]) is kind for r in rows):  # a bool is no count
            raise ValueError(f"a report row's {key!r} is not a {kind.__name__}")
    if data.get("all_equal") is not all(r["equal"] for r in rows):  # bools only
        raise ValueError("'all_equal' is not the bool the rows' 'equal' give")
    print("lemma                 equal  produced  expected")
    print("-" * 48)
    for r in rows:
        print(f"{r['lemma']:<22}{str(r['equal']):<7}"
              f"{r['produced_terms']:<10}{r['expected_terms']}")
    return 0 if data["all_equal"] else 1


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
    p.add_argument("--model", **_choice([m.value for m in VariableModel]),
                   default="edge")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("verify", help="run reduction pipelines against oracles")
    p.add_argument("--lemma", action="append", **_choice(LEMMAS),
                   help="lemma id (repeatable); default: all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--target", **_choice(sorted(TARGETS)), help="default: k4")
    p.add_argument("--h-file", default=None, help="graph JSON for H")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the report file")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("genus", help="minimum genus, certified by one edge "
                                     "deletion or found by rotation-system search")
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
