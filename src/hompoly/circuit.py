"""Arithmetic-circuit IR with oracle gates.

A circuit is a DAG of constant / variable / add / mul / oracle gates with one
output.  As in a c-reduction (Valiant 1979; Buergisser 2000) a circuit has
at most one oracle: every oracle gate stands for the same polynomial over
the circuit's oracle_vars, applied to the gate inputs.  The gates stay
opaque until eval_symbolic binds that polynomial and expands the calls.
A frozen circuit holds only the gates reachable from its output, in
topological order, so every walk over it is one pass over its gates.
size() counts its add, mul and oracle gates (variable and constant leaves
are free), which makes the recorded interpolation-circuit size bounds well
defined.

Constants are exact: an int or a Fraction, never a float.  eval_symbolic
works in exact integers.  Each value is a dict from monomial ids (monomials
interned for one call) to ints, with one common int denominator, and only
the output becomes a Polynomial.  An add gate sums its inputs in one pass
over the lcm of their denominators; a mul by a constant scales the ints,
and any other mul converts both factors and multiplies them as
Polynomials, like the oracle fallback below.  The bound oracle is converted
once per call, and each oracle rewrite has one home:
  - every input is zero or, in a multilinear oracle, an int times its own
    variable (the interpolation copies): each term's coefficient is
    multiplied by s^popcount(mask & class_s) for each scalar s, where mask
    holds the term's variables and class_s the variables scaled by s;
  - anything else, a non-multilinear oracle at scaled variables included:
    Polynomial.substitute rewrites the oracle at the inputs, merging single
    terms into each monomial and expanding sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .poly import Coeff, Polynomial, VarId, _norm_coeff

# gate encodings:
#   ('const', Coeff)
#   ('var', VarId)
#   ('add', (ids...))
#   ('mul', (ids...))
#   ('oracle', (ids...))
_OPS = ('add', 'mul', 'oracle')  # the gate kinds with inputs, counted by size()


@dataclass(frozen=True)
class Circuit:
    """Only the gates reachable from the output, in topological order (each
    after its inputs, the output last); size() counts add, mul and oracle."""
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
        """A constant gate; c must be an int or a Fraction (a bool counts as
        an int), else TypeError."""
        return self._intern(('const', Fraction(_norm_coeff(c))))

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
        """The gates reachable from output, renumbered in build order; the
        builder is unchanged, so it may be frozen again at another output."""
        gates = self._gates
        live = [False] * output + [True]
        for gid in range(output, -1, -1):  # inputs have smaller ids
            if live[gid] and gates[gid][0] in _OPS:
                for i in gates[gid][1]:
                    live[i] = True
        if all(live):
            return Circuit(tuple(gates[:output + 1]), output, self._oracle_vars)
        new_id, kept = {}, []
        for gid, (kind, arg) in enumerate(gates[:output + 1]):
            if live[gid]:
                new_id[gid] = len(kept)
                kept.append((kind, tuple(new_id[i] for i in arg) if kind in _OPS else arg))
        return Circuit(tuple(kept), len(kept) - 1, self._oracle_vars)


def size(c: Circuit) -> int:
    """Gate count, excluding var/const leaves."""
    return sum(1 for kind, _ in c.gates if kind in _OPS)


def eval_symbolic(c: Circuit, oracle: Polynomial | None = None) -> Polynomial:
    """Polynomial computed by the circuit, with every oracle gate expanded
    by substituting its input values for c.oracle_vars in the bound oracle
    polynomial.  KeyError if an oracle gate is reached while no polynomial
    is bound.  The arithmetic is exact; the module docstring gives the
    value layout and the oracle paths.  Terms come out in the order that
    pairwise Polynomial sums, products and substitute give."""
    mons = _Monomials()
    bound = None
    values: list[tuple] = []
    for kind, arg in c.gates:
        if kind == 'const':
            value = ({_ONE: arg.numerator}, arg.denominator) if arg else _ZERO
        elif kind == 'var':
            value = ({mons.id(((arg, 1),)): 1}, 1)
        elif kind == 'add':
            value = _sum([values[i] for i in arg])
        elif kind == 'mul':
            value = _UNIT
            for i in arg:
                value = _product(mons, value, values[i])
        else:
            if bound is None:
                if oracle is None:
                    raise KeyError("no oracle polynomial is bound")
                bound = _BoundOracle(oracle, c.oracle_vars, mons)
            value = bound.call([values[i] for i in arg])
        values.append(value)
    return _to_poly(mons, values[c.output])


# A value is (terms, den): terms maps monomial ids to nonzero ints, and the
# value is sum(n * monomial) / den with den >= 1.  Values are never mutated,
# so gates may share them.
_ONE = 0  # the id of the empty monomial
_ZERO = ({}, 1)
_UNIT = ({_ONE: 1}, 1)


class _Monomials:
    """Monomials interned as small ints for one evaluation."""

    def __init__(self):
        self.ids: dict = {(): _ONE}
        self.monos: list = [()]

    def id(self, m) -> int:
        i = self.ids.get(m)
        if i is None:
            i = self.ids[m] = len(self.monos)
            self.monos.append(m)
        return i


def _to_poly(mons: _Monomials, value: tuple) -> Polynomial:
    terms, den = value
    monos = mons.monos
    if den == 1:
        return Polynomial({monos[m]: n for m, n in terms.items()})
    return Polynomial({monos[m]: Fraction(n, den) for m, n in terms.items()})


def _from_poly(mons: _Monomials, p: Polynomial) -> tuple:
    den = lcm(*(cf.denominator for _, cf in p.terms()))
    terms = {mons.id(m): cf.numerator * (den // cf.denominator) for m, cf in p.terms()}
    return (terms, den) if terms else _ZERO


def _scaled(terms: dict, s: int) -> dict:
    return terms if s == 1 else {m: n * s for m, n in terms.items()}


def _sum(values: list) -> tuple:
    """The sum of values in one pass over the lcm of their denominators.  A
    term that cancels is deleted at once, so a later input re-inserts it
    last, as a chain of pairwise sums would."""
    if not values:
        return _ZERO
    den = lcm(*(d for _, d in values))
    terms, d = values[0]
    acc = dict(terms) if d == den else _scaled(terms, den // d)
    get = acc.get
    for terms, d in values[1:]:
        f = den // d
        for m, n in terms.items():
            s = get(m, 0) + n * f
            if s:
                acc[m] = s
            else:
                del acc[m]
    if not acc:
        return _ZERO
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            acc = {m: n // g for m, n in acc.items()}
            den //= g
    return acc, den


def _product(mons: _Monomials, a: tuple, b: tuple) -> tuple:
    """a * b: a scaling when either factor is a constant, else
    Polynomial.__mul__ on both factors."""
    (ta, da), (tb, db) = a, b
    if not ta or not tb:
        return _ZERO
    if len(tb) == 1 and _ONE in tb:
        return _scaled(ta, tb[_ONE]), da * db
    if len(ta) == 1 and _ONE in ta:
        return _scaled(tb, ta[_ONE]), da * db
    return _from_poly(mons, _to_poly(mons, a) * _to_poly(mons, b))


class _BoundOracle:
    """The oracle polynomial over its variables, converted once per
    evaluation into parallel lists, one entry per term: its monomial id,
    its numerator over self.den and the bit mask of its oracle variables;
    flat says that the oracle is multilinear in those variables."""

    def __init__(self, p: Polynomial, vars: tuple, mons: _Monomials):
        self.poly, self.vars, self.mons = p, vars, mons
        pos = {v: i for i, v in enumerate(vars)}
        self.own = [mons.id(((v, 1),)) for v in vars]
        self.den = den = lcm(*(cf.denominator for _, cf in p.terms()))
        self.flat = p.is_multilinear(vars)
        self.ids, self.nums, self.masks = [], [], []
        for m, cf in p.terms():
            mask = 0
            for v, _ in m:
                i = pos.get(v)
                if i is not None:
                    mask |= 1 << i
            self.ids.append(mons.id(m))
            self.nums.append(cf.numerator * (den // cf.denominator))
            self.masks.append(mask)

    def call(self, inputs: list) -> tuple:
        """The oracle at these input values."""
        scalars = []
        for (t, d), own in zip(inputs, self.own):
            if not t:
                scalars.append(0)
            elif self.flat and d == 1 and len(t) == 1 and own in t:
                scalars.append(t[own])
            else:
                mons = self.mons
                p = self.poly.substitute({v: _to_poly(mons, x)
                                          for v, x in zip(self.vars, inputs)})
                return _from_poly(mons, p)
        out = {tid: n for tid, n in zip(self.ids, self._coefficients(scalars)) if n}
        return (out, self.den) if out else _ZERO

    def _coefficients(self, scalars: list) -> list:
        """Each term's numerator when input i is scalars[i] times its own
        variable; 0 for a term that a zero input kills.  The inputs with one
        scalar s form a class, and a term gains the factor
        s^popcount(mask & class) in one pass over the terms per class."""
        classes: dict[int, int] = {}
        for i, s in enumerate(scalars):
            classes[s] = classes.get(s, 0) | 1 << i
        dead = classes.pop(0, 0)
        classes.pop(1, None)
        coefs, masks = self.nums, self.masks
        for s, cls in classes.items():
            pw = [s ** k for k in range(cls.bit_count() + 1)]
            coefs = [n * pw[(m & cls).bit_count()] for n, m in zip(coefs, masks)]
        if dead:
            coefs = [0 if m & dead else n for n, m in zip(coefs, masks)]
        return coefs


# -- homogeneous-component extraction by interpolation ---------------------------

def lagrange_weights(k: int, delta: int) -> list[Fraction]:
    """w_j with sum_j w_j * q(t_j) = [t^k] q for every q of degree <= delta,
    over the integer nodes t_j = 0..delta."""
    if not 0 <= k <= delta:
        raise ValueError("need 0 <= k <= delta")
    weights = []
    for j in range(delta + 1):
        denom = 1
        coeffs = [1]  # integer coefficients of prod_{i != j} (t - i)
        for i in range(delta + 1):
            if i == j:
                continue
            denom *= j - i
            nxt = [0] * (len(coeffs) + 1)
            for d, cd in enumerate(coeffs):
                nxt[d + 1] += cd
                nxt[d] -= cd * i
            coeffs = nxt
        weights.append(Fraction(coeffs[k], denom))
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
    """Copy c's gates into b, with each Var(v) gate replaced by the gate id
    var_gate(v) returns; the id of the copied output.  Copies are interned
    as they are: no add or mul gate has one input, and consts are Fractions."""
    if c.oracle_vars is not None:
        b.declare_oracle(c.oracle_vars)
    new_id: list[int] = []
    for g in c.gates:
        kind, arg = g
        if kind == 'var':
            new_id.append(var_gate(arg))
        elif kind == 'const':
            new_id.append(b._intern(g))
        else:
            new_id.append(b._intern((kind, tuple(new_id[i] for i in arg))))
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
    weights = lagrange_weights(k, delta)  # ValueError unless 0 <= k <= delta
    scaled = frozenset(vars)
    b = CircuitBuilder()
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
