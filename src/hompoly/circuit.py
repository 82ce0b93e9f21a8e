"""Arithmetic-circuit IR with oracle gates.

A circuit is a DAG of constant / variable / add / mul / oracle gates with one
output.  Oracle gates stand for a fixed named polynomial applied to the gate
inputs; they stay opaque until eval_symbolic binds each oracle id to an
actual Polynomial and expands the calls.  size() counts add, mul and oracle
gates only (variable and constant leaves are free), which makes the recorded
interpolation-circuit size bounds well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Coeff, Monomial, Polynomial, VarId

# gate encodings:
#   ('const', Coeff)
#   ('var', VarId)
#   ('add', (ids...))
#   ('mul', (ids...))
#   ('oracle', oracle_id, (ids...))


@dataclass(frozen=True)
class Circuit:
    gates: tuple
    output: int
    oracle_vars: tuple = ()  # ((oracle_id, (VarId, ...)), ...)

    def declared_vars(self, oracle_id: str) -> tuple:
        for oid, vs in self.oracle_vars:
            if oid == oracle_id:
                return vs
        raise KeyError(oracle_id)


class CircuitBuilder:
    """Builds circuits bottom-up with structural sharing of identical gates."""

    def __init__(self):
        self._gates: list = []
        self._index: dict = {}
        self._oracles: dict[str, tuple] = {}

    def _intern(self, gate) -> int:
        gid = self._index.get(gate)
        if gid is None:
            gid = len(self._gates)
            self._gates.append(gate)
            self._index[gate] = gid
        return gid

    def const(self, c: Coeff) -> int:
        return self._intern(('const', Fraction(c)))

    def var(self, v: VarId) -> int:
        return self._intern(('var', v))

    def add(self, *inputs: int) -> int:
        if len(inputs) == 1:
            return inputs[0]
        return self._intern(('add', tuple(inputs)))

    def mul(self, *inputs: int) -> int:
        if len(inputs) == 1:
            return inputs[0]
        return self._intern(('mul', tuple(inputs)))

    def declare_oracle(self, oracle_id: str, vars: tuple) -> None:
        known = self._oracles.get(oracle_id)
        if known is not None and known != tuple(vars):
            raise ValueError(f"oracle {oracle_id!r} redeclared with different variables")
        self._oracles[oracle_id] = tuple(vars)

    def oracle(self, oracle_id: str, inputs) -> int:
        if oracle_id not in self._oracles:
            raise ValueError(f"oracle {oracle_id!r} not declared")
        if len(inputs) != len(self._oracles[oracle_id]):
            raise ValueError(f"oracle {oracle_id!r} arity mismatch")
        return self._intern(('oracle', oracle_id, tuple(inputs)))

    def freeze(self, output: int) -> Circuit:
        return Circuit(tuple(self._gates), output,
                       tuple(sorted(self._oracles.items())))


def _reachable(c: Circuit) -> set:
    seen = set()
    stack = [c.output]
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        g = c.gates[gid]
        if g[0] in ('add', 'mul'):
            stack.extend(g[1])
        elif g[0] == 'oracle':
            stack.extend(g[2])
    return seen


def size(c: Circuit) -> int:
    """Gate count, excluding var/const leaves."""
    return sum(1 for gid in _reachable(c)
               if c.gates[gid][0] in ('add', 'mul', 'oracle'))


def eval_symbolic(c: Circuit,
                  oracles: dict[str, Polynomial] | None = None) -> Polynomial:
    """Polynomial computed by the circuit; oracle gates are expanded by
    substituting their input polynomials into the bound oracle polynomial."""
    oracles = oracles or {}
    values: dict[int, Polynomial] = {}
    order = _topo_order(c)
    for gid in order:
        g = c.gates[gid]
        kind = g[0]
        if kind == 'const':
            values[gid] = Polynomial.constant(g[1])
        elif kind == 'var':
            values[gid] = Polynomial.variable(g[1])
        elif kind == 'add':
            acc = Polynomial.zero()
            for i in g[1]:
                acc = acc + values[i]
            values[gid] = acc
        elif kind == 'mul':
            acc = Polynomial.constant(1)
            for i in g[1]:
                acc = acc * values[i]
            values[gid] = acc
        else:
            oid = g[1]
            if oid not in oracles:
                raise KeyError(f"oracle {oid!r} is not bound")
            decl = c.declared_vars(oid)
            inputs = [values[i] for i in g[2]]
            values[gid] = _expand_oracle(oracles[oid], decl, inputs)
    return values[c.output]


def _topo_order(c: Circuit) -> list[int]:
    reach = _reachable(c)
    # gates reference only earlier ids by construction
    return sorted(reach)


def _expand_oracle(g: Polynomial, decl: tuple, inputs: list[Polynomial]) -> Polynomial:
    sub: dict[VarId, Polynomial] = {}
    scaling = True
    scale_of: dict[VarId, Coeff] = {}
    for v, p in zip(decl, inputs):
        sub[v] = p
        terms = list(p.terms())
        if len(terms) == 1 and terms[0][0] == ((v, 1),):
            scale_of[v] = terms[0][1]
        elif len(terms) == 0:
            scale_of[v] = 0
        else:
            scaling = False
    if scaling:
        # every input is c_v * its own variable: terms keep their monomials
        out: dict[Monomial, Coeff] = {}
        for m, c in g.terms():
            coeff: Coeff = c
            for v, e in m:
                if v in scale_of:
                    coeff *= scale_of[v] ** e
                    if not coeff:
                        break
            if coeff:
                out[m] = out.get(m, 0) + coeff
        return Polynomial(out)
    return g.substitute(sub)


# -- homogeneous-component extraction by interpolation ---------------------------

def lagrange_weights(k: int, delta: int) -> list[Fraction]:
    """w_j with sum_j w_j * q(t_j) = [t^k] q for every q of degree <= delta,
    over the integer nodes t_j = 0..delta."""
    if not 0 <= k <= delta:
        raise ValueError("need 0 <= k <= delta")
    nodes = list(range(delta + 1))
    weights = []
    for j, tj in enumerate(nodes):
        denom = Fraction(1)
        coeffs = [Fraction(1)]  # coefficients of prod_{i != j} (t - t_i)
        for i, ti in enumerate(nodes):
            if i == j:
                continue
            denom *= tj - ti
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for d, cd in enumerate(coeffs):
                nxt[d + 1] += cd
                nxt[d] -= cd * ti
            coeffs = nxt
        weights.append(coeffs[k] / denom)
    return weights


def extract_homc(oracle_id: str, oracle_vars, vars, k: int, delta: int) -> Circuit:
    """Interpolation circuit whose value is the degree-k slice, in the given
    variable subset, of the polynomial bound to oracle_id.

    interpolate_homc around the one-gate oracle call: the oracle is called
    at delta+1 points with each selected variable v replaced by v*t_j for
    integer nodes t_j = 0..delta, and the calls are combined with the
    Lagrange weights for the coefficient of t^k.  Gate count is
    (delta+1)*(|vars|+2) + 1.
    """
    return interpolate_homc(oracle_call_circuit(oracle_id, oracle_vars),
                            vars, k, delta)


def _rebuild(b: CircuitBuilder, c: Circuit, var_gate) -> int:
    """Copy c's reachable gates into b in topological order, with each
    Var(v) gate replaced by the gate id var_gate(v) returns; the id of the
    copied output."""
    for oid, vs in c.oracle_vars:
        b.declare_oracle(oid, vs)
    new_id: dict[int, int] = {}
    for gid in _topo_order(c):
        g = c.gates[gid]
        kind = g[0]
        if kind == 'const':
            new_id[gid] = b.const(g[1])
        elif kind == 'var':
            new_id[gid] = var_gate(g[1])
        elif kind == 'add':
            new_id[gid] = b.add(*(new_id[i] for i in g[1]))
        elif kind == 'mul':
            new_id[gid] = b.mul(*(new_id[i] for i in g[1]))
        else:
            new_id[gid] = b.oracle(g[1], [new_id[i] for i in g[2]])
    return new_id[c.output]


def substitute_vars(c: Circuit, mapping: dict) -> Circuit:
    """Rebuild the circuit with each Var(v) gate replaced per mapping.

    Map values may be VarIds (relabeling) or numbers (constant projection);
    together they cover the reduction pipelines.
    """
    b = CircuitBuilder()

    def var_gate(v):
        tgt = mapping.get(v, v)
        return b.var(tgt) if isinstance(tgt, tuple) else b.const(tgt)

    return b.freeze(_rebuild(b, c, var_gate))


def interpolate_homc(c: Circuit, vars, k: int, delta: int) -> Circuit:
    """Nest a degree-k slice around an existing circuit.

    Builds delta+1 copies of c with each selected Var(v) replaced by v*t_j
    and sums them with Lagrange weights; used when a pipeline composes
    several extractions.  Size grows by roughly a factor of delta+1.
    """
    if not 0 <= k <= delta:
        raise ValueError("need 0 <= k <= delta")
    scaled = frozenset(vars)
    b = CircuitBuilder()
    weights = lagrange_weights(k, delta)
    parts = []
    for j in range(delta + 1):
        tj = b.const(j)

        def var_gate(v):
            return b.mul(b.var(v), tj) if v in scaled else b.var(v)

        copy = _rebuild(b, c, var_gate)
        parts.append(b.mul(b.const(weights[j]), copy))
    return b.freeze(b.add(*parts))


def scale_circuit(c: Circuit, w: Coeff) -> Circuit:
    """Multiply the circuit's output by a constant."""
    b = CircuitBuilder()
    out = _rebuild(b, c, b.var)
    return b.freeze(b.mul(b.const(w), out))


def oracle_call_circuit(oracle_id: str, oracle_vars) -> Circuit:
    """The identity circuit: one oracle gate applied to its own variables."""
    oracle_vars = tuple(oracle_vars)
    b = CircuitBuilder()
    b.declare_oracle(oracle_id, oracle_vars)
    return b.freeze(b.oracle(oracle_id, [b.var(v) for v in oracle_vars]))
