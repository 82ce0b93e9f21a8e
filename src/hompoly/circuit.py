"""Arithmetic-circuit IR with oracle gates.

A circuit is a DAG of constant / variable / add / mul / oracle gates with one
output.  As in a c-reduction (Valiant 1979; Buergisser 2000) a circuit has
at most one oracle: every oracle gate stands for the same polynomial over
the circuit's oracle_vars, applied to the gate inputs.  The gates stay
opaque until eval_symbolic binds that polynomial and expands the calls.
size() counts add, mul and oracle gates only (variable and constant leaves
are free), which makes the recorded interpolation-circuit size bounds well
defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Coeff, Polynomial, VarId

# gate encodings:
#   ('const', Coeff)
#   ('var', VarId)
#   ('add', (ids...))
#   ('mul', (ids...))
#   ('oracle', (ids...))


@dataclass(frozen=True)
class Circuit:
    gates: tuple
    output: int
    oracle_vars: tuple | None = None  # the oracle's VarIds; None without one


class CircuitBuilder:
    """Builds circuits bottom-up with structural sharing of identical gates."""

    def __init__(self):
        self._gates: list = []
        self._index: dict = {}
        self._oracle_vars: tuple | None = None

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

    def declare_oracle(self, vars: tuple) -> None:
        vars = tuple(vars)
        if self._oracle_vars is not None and self._oracle_vars != vars:
            raise ValueError("oracle redeclared with different variables")
        self._oracle_vars = vars

    def oracle(self, inputs) -> int:
        if self._oracle_vars is None:
            raise ValueError("oracle not declared")
        if len(inputs) != len(self._oracle_vars):
            raise ValueError("oracle arity mismatch")
        return self._intern(('oracle', tuple(inputs)))

    def freeze(self, output: int) -> Circuit:
        return Circuit(tuple(self._gates), output, self._oracle_vars)


def _reachable(c: Circuit) -> set:
    seen = set()
    stack = [c.output]
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        g = c.gates[gid]
        if g[0] in ('add', 'mul', 'oracle'):
            stack.extend(g[1])
    return seen


def size(c: Circuit) -> int:
    """Gate count, excluding var/const leaves."""
    return sum(1 for gid in _reachable(c)
               if c.gates[gid][0] in ('add', 'mul', 'oracle'))


def eval_symbolic(c: Circuit, oracle: Polynomial | None = None) -> Polynomial:
    """Polynomial computed by the circuit; oracle gates are expanded by
    substituting their input polynomials for c.oracle_vars in the bound
    oracle polynomial.  KeyError if an oracle gate is reached while no
    polynomial is bound."""
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
            factors = [values[i] for i in g[1]] or [Polynomial.constant(1)]
            acc = factors[0]
            for f in factors[1:]:
                acc = _times(acc, f)
            values[gid] = acc
        else:
            if oracle is None:
                raise KeyError("no oracle polynomial is bound")
            values[gid] = oracle.substitute(
                dict(zip(c.oracle_vars, [values[i] for i in g[1]])))
    return values[c.output]


def _times(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, by Polynomial.scale when either factor is a constant."""
    for p, q in ((a, b), (b, a)):
        c = q.coefficient(())
        if len(q) == (1 if c else 0):  # q is the constant c
            return p.scale(c)
    return a * b


def _topo_order(c: Circuit) -> list[int]:
    reach = _reachable(c)
    # gates reference only earlier ids by construction
    return sorted(reach)


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


def extract_homc(oracle_vars, vars, k: int, delta: int) -> Circuit:
    """Interpolation circuit whose value is the degree-k slice, in the given
    variable subset, of the oracle polynomial over oracle_vars.

    interpolate_homc around the one-gate oracle call: the oracle is called
    at delta+1 points with each selected variable v replaced by v*t_j for
    integer nodes t_j = 0..delta, and the calls are combined with the
    Lagrange weights for the coefficient of t^k.  Gate count is
    (delta+1)*(|vars|+2) + 1.
    """
    return interpolate_homc(oracle_call_circuit(oracle_vars), vars, k, delta)


def _rebuild(b: CircuitBuilder, c: Circuit, var_gate) -> int:
    """Copy c's reachable gates into b in topological order, with each
    Var(v) gate replaced by the gate id var_gate(v) returns; the id of the
    copied output."""
    if c.oracle_vars is not None:
        b.declare_oracle(c.oracle_vars)
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
            new_id[gid] = b.oracle([new_id[i] for i in g[1]])
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


def oracle_call_circuit(vars) -> Circuit:
    """The identity circuit: one oracle gate applied to its own variables."""
    vars = tuple(vars)
    b = CircuitBuilder()
    b.declare_oracle(vars)
    return b.freeze(b.oracle([b.var(v) for v in vars]))
