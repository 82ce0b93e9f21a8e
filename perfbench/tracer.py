"""Per-layer tracing of hompoly from outside the package.

``install`` wraps the functions listed in ``LAYERS`` and rebinds every name
that refers to them, in every ``hompoly`` module, so a function imported by
name elsewhere (``is_homomorphic`` in ``genfun`` and ``reductions``,
``hom_poly`` in ``cli``) is traced on every path. A wrapped call records its
call count and its self time: inclusive time minus the time spent in wrapped
callees. Self times of all wrapped calls of one process therefore add up to
the inclusive time of the outermost wrapped call, ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import comb

# module -> names wrapped in it; "Class.method" wraps a method on the class
LAYERS = {
    "topo": ("is_planar", "is_outerplanar", "planar_rotation", "min_genus",
             "min_genus_rotation", "genus_of_rotation", "find_minor"),
    "graphs": ("recognize", "is_homomorphic", "subset_in_class",
               "hom_to_single_edge"),
    "reductions": ("classify", "budget_survivors", "reduce_trees",
                   "reduce_outerplanar", "reduce_planar", "reduce_genus",
                   "block_certificates", "chain_rotation"),
    "genfun": ("hom_poly", "generating_function", "oracle_uhc",
               "oracle_matching"),
    "poly": ("Polynomial.__mul__", "Polynomial.__add__",
             "Polynomial.substitute", "Polynomial.homogeneous_component"),
    "circuit": ("eval_symbolic", "interpolate_homc", "extract_homc",
                "oracle_call_circuit", "size"),
    "cli": ("main",),
    "gadgets": ("star_gadget", "buddy_transform", "planar_gadget",
                "subdivide_and_buddy_planar", "genus_block", "chain_layout",
                "amalgam_chain", "fold_block_to_edge_certificate"),
}


def resolve(layers=LAYERS) -> dict:
    """"module.qualname" -> original function, for every listed name.

    Raises LookupError for a missing module or name, before anything is
    rebound.
    """
    out = {}
    for modname, names in layers.items():
        try:
            module = importlib.import_module(f"hompoly.{modname}")
        except ImportError as exc:
            raise LookupError(f"hompoly.{modname} is missing") from exc
        for qualname in names:
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                raise LookupError(f"hompoly.{modname}.{qualname} is missing")
            out[f"{modname}.{qualname}"] = fn
    return out


def _hompoly_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hompoly" or name.startswith("hompoly."))]


def _holders(modules) -> list:
    """The hompoly modules and the classes they define."""
    out = list(modules)
    for module in modules:
        out += [v for v in vars(module).values()
                if inspect.isclass(v) and v.__module__ == module.__name__]
    return out


class Tracer:
    """Call counts, self times and a few counters of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # "module.qualname" -> [calls, self_s]
        self.counters = {"budget_survivors.candidates": 0,
                         "budget_survivors.survivors": 0,
                         "is_homomorphic.true": 0,
                         "hom_poly.terms": 0,
                         "circuit.gates_max": 0}
        self._stack = [0.0]   # time spent in wrapped callees, per open call

    def wrap(self, key: str, fn, observe=None):
        stats = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observers(self, originals: dict) -> dict:
        counters = self.counters

        def budget_survivors(args, kwargs, result):
            signature = inspect.signature(originals["reductions.budget_survivors"])
            bound = signature.bind(*args, **kwargs)
            free, pick = bound.arguments["free"], bound.arguments["pick"]
            counters["budget_survivors.candidates"] += comb(len(free), pick)
            counters["budget_survivors.survivors"] += len(result)

        def is_homomorphic(args, kwargs, result):
            counters["is_homomorphic.true"] += bool(result)

        def hom_poly(args, kwargs, result):
            counters["hom_poly.terms"] += len(result)

        def eval_symbolic(args, kwargs, result):
            c = args[0] if args else kwargs["c"]
            counters["circuit.gates_max"] = max(counters["circuit.gates_max"],
                                                len(c.gates))

        return {"reductions.budget_survivors": budget_survivors,
                "graphs.is_homomorphic": is_homomorphic,
                "genfun.hom_poly": hom_poly,
                "circuit.eval_symbolic": eval_symbolic}

    def install(self, layers=LAYERS) -> None:
        """Wrap every listed name and rebind it wherever hompoly holds it.

        Raises RuntimeError if any hompoly module or class still holds an
        unwrapped original afterwards.
        """
        originals = resolve(layers)
        observers = self._observers(originals)
        modules = _hompoly_modules()
        for key, fn in originals.items():
            wrapped = self.wrap(key, fn, observers.get(key))
            for holder in _holders(modules):
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapped)
        stale = {id(fn): key for key, fn in originals.items()}
        for holder in _holders(modules):
            for name, value in vars(holder).items():
                if id(value) in stale:
                    raise RuntimeError(f"{holder!r} still holds the unwrapped "
                                       f"{stale[id(value)]} as {name}")

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}
