"""Exact sparse multivariate polynomials with tagged variables.

Variables are tagged tuples so that edge, loop, vertex and auxiliary
indeterminates coexist in one ring:

    ('e', i, j)   edge variable x_{i,j} with i < j
    ('l', j)      loop variable x_j
    ('v', i)      vertex variable x_i
    ('y', name)   auxiliary variable (interpolation / enforcement)

The tag characters sort as 'e' < 'l' < 'v' < 'y', which fixes the canonical
variable order.  A monomial is a tuple of (varid, exponent) pairs sorted by
varid with all exponents positive; a polynomial maps monomials to nonzero
exact coefficients (int or Fraction; anything else is a TypeError).
Equality is structural equality of these canonical forms, so two polynomials
are == exactly when they are the same polynomial over Q.

The generating function assembler builds its terms in graded-lexicographic
order, the order sorted_terms returns, as integer masks, one bit per
variable with every exponent 1, and Polynomial.from_masks keeps them so: the
monomial tuples are built from per-byte tables on first use and then kept,
while len, bool and mask_terms read the masks, and sorted_terms returns the
stored order.  Any other polynomial is sorted on each sorted_terms call.
Polynomials are immutable by convention, so the masks are a memo of the
stored terms, not a mode: equality and arithmetic ignore them, and every
result of arithmetic starts without them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

VarId = tuple
Coeff = Union[int, Fraction]
Monomial = tuple  # tuple[tuple[VarId, int], ...], sorted by VarId


def edge_var(i: int, j: int) -> VarId:
    if i == j:
        raise ValueError("edge variable endpoints must differ")
    return ('e', i, j) if i < j else ('e', j, i)


def loop_var(j: int) -> VarId:
    return ('l', j)


def vertex_var(v: int) -> VarId:
    return ('v', v)


def aux_var(name: str) -> VarId:
    return ('y', name)


def var_to_str(v: VarId) -> str:
    return ":".join(str(x) for x in v)


def _norm_coeff(c: Coeff) -> Coeff:
    """c as an exact coefficient: an int, or a Fraction with denominator
    above 1.  A bool becomes an int; a float or any other type is a
    TypeError, since it is not an exact rational."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")


def _chunk_tables(values: list, empty, op) -> list[list]:
    """For each run of 8 values, a table indexed by a byte: entry b folds
    op over the run's values at the set bits of b, lowest bit first."""
    tables = []
    for c in range(0, len(values), 8):
        table = [empty]
        for v in values[c:c + 8]:
            table += [op(x, v) for x in table]
        tables.append(table)
    return tables


def _mask_join(tables: list[list], mask: int, acc):
    """acc + the entry of each byte of mask in its _chunk_tables table,
    lowest byte first."""
    i = 0
    while mask:
        acc += tables[i][mask & 255]
        mask >>= 8
        i += 1
    return acc


def monomial(pairs: Mapping[VarId, int] | Iterable[tuple[VarId, int]]) -> Monomial:
    """Canonical monomial from a varid->exponent mapping; zero exponents dropped."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    merged: dict[VarId, int] = {}
    for v, e in items:
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


class Polynomial:
    """Immutable-by-convention sparse polynomial over exact rationals."""

    __slots__ = ("_tuples", "_masks", "_bitvars")

    def __init__(self, terms: dict[Monomial, Coeff] | None = None):
        cleaned: dict[Monomial, Coeff] = {}
        if terms:
            for m, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    cleaned[m] = c
        self._tuples = cleaned
        self._masks = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Coeff) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, v: VarId) -> "Polynomial":
        return cls({((v, 1),): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Coeff = 1) -> "Polynomial":
        return cls({m: coeff})

    @classmethod
    def from_masks(cls, masks: dict[int, Coeff], bitvars: list) -> "Polynomial":
        """The polynomial that owns masks: bit i of a mask is bitvars[i] with
        exponent 1.  The caller gives bitvars ascending, nonzero int or
        Fraction coefficients and the masks in the order of sorted_terms;
        nothing is copied or checked."""
        p = cls.__new__(cls)
        p._tuples = None
        p._masks = masks
        p._bitvars = bitvars
        return p

    @property
    def _terms(self) -> dict[Monomial, Coeff]:
        """The terms as {monomial: coeff}; a polynomial built from masks
        joins each mask's monomial from per-byte tables on first use."""
        if self._tuples is None:
            tabs = _chunk_tables([((v, 1),) for v in self._bitvars], (), operator.add)
            self._tuples = {_mask_join(tabs, mask, ()): c
                            for mask, c in self._masks.items()}
        return self._tuples

    # -- inspection -----------------------------------------------------

    def terms(self):
        return self._terms.items()

    def coefficient(self, m: Monomial) -> Coeff:
        return self._terms.get(m, 0)

    def __len__(self) -> int:
        return len(self._tuples if self._masks is None else self._masks)

    def __bool__(self) -> bool:
        return len(self) > 0

    def is_zero(self) -> bool:
        return not self

    def variables(self) -> set:
        out: set = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, vars: Iterable[VarId]) -> int:
        vs = frozenset(vars)
        return max((sum(e for v, e in m if v in vs) for m in self._terms), default=0)

    def is_multilinear(self, vars: Iterable[VarId] | None = None) -> bool:
        vs = frozenset(vars) if vars is not None else None
        for m in self._terms:
            for v, e in m:
                if e > 1 and (vs is None or v in vs):
                    return False
        return True

    # -- ring operations -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Coeff) -> "Polynomial":
        c = _norm_coeff(c)
        if not c:
            return Polynomial()
        return Polynomial({m: cc * c for m, cc in self._terms.items()})

    def divide_exact(self, c: Coeff) -> "Polynomial":
        """Divide every coefficient by the nonzero constant c, exactly."""
        if not _norm_coeff(c):
            raise ZeroDivisionError("divide_exact by zero")
        return self.scale(1 / Fraction(c))

    # -- substitution and slicing -----------------------------------------

    def substitute(self, mapping: Mapping[VarId, object]) -> "Polynomial":
        """Simultaneous substitution; unmapped variables are unchanged.

        Values may be VarIds (relabeling), numbers, or Polynomials.  When
        every value has at most one term (a constant, zero, another
        variable, or a multiple of a monomial such as its own variable),
        each value is merged into each monomial, which is re-sorted, and
        the terms keep their order up to merged duplicates.  Otherwise
        every term is expanded as a product.
        """
        norm: dict[VarId, Polynomial] = {}
        for v, val in mapping.items():
            if isinstance(val, Polynomial):
                norm[v] = val
            elif isinstance(val, tuple):  # VarId
                norm[v] = Polynomial.variable(val)
            elif isinstance(val, (int, Fraction)):
                norm[v] = Polynomial.constant(val)
            else:
                raise TypeError(f"cannot substitute value of type {type(val)}")

        if all(len(p) <= 1 for p in norm.values()):
            simple = {v: next(iter(p._terms.items()), ((), 0)) for v, p in norm.items()}
            out: dict[Monomial, Coeff] = {}
            for m, c in self._terms.items():
                parts: dict[VarId, int] = {}
                for v, e in m:
                    if v in simple:
                        tm, tc = simple[v]
                        if not tc:
                            break  # the term vanishes
                        c *= tc ** e
                        for tv, te in tm:
                            parts[tv] = parts.get(tv, 0) + te * e
                    else:
                        parts[v] = parts.get(v, 0) + e
                else:
                    mm = tuple(sorted(parts.items()))
                    out[mm] = out.get(mm, 0) + c
            return Polynomial(out)

        acc = Polynomial()
        for m, c in self._terms.items():
            term = Polynomial.constant(c)
            for v, e in m:
                base = norm.get(v, Polynomial.variable(v))
                for _ in range(e):
                    term = term * base
            acc = acc + term
        return acc

    def homogeneous_component(self, vars: Iterable[VarId], k: int) -> "Polynomial":
        """Terms whose total degree restricted to vars equals k."""
        if k < 0:
            raise ValueError("degree must be nonnegative")
        vs = frozenset(vars)
        out = {m: c for m, c in self._terms.items()
               if sum(e for v, e in m if v in vs) == k}
        return Polynomial(out)

    # -- canonical output --------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in graded-lexicographic order over the canonical VarId order:
        by total degree, then by the monomial tuples.

        A polynomial built from masks holds its terms in that order and
        returns them as stored; any other returns a sorted copy.
        """
        if self._masks is not None:
            return list(self._terms.items())
        return sorted(self._terms.items(), key=lambda it: (sum(e for _, e in it[0]), it[0]))

    def mask_terms(self):
        """(pairs, (mask, coeff) pairs) in sorted_terms order, where bit i of
        a mask is the (VarId, exponent) pair pairs[i] and pairs ascend, so a
        monomial is its mask's pairs in bit order.  A polynomial built from
        masks returns its own; any other numbers the pairs its terms use."""
        if self._masks is not None:
            return [(v, 1) for v in self._bitvars], self._masks.items()
        pairs = sorted({pair for m in self._terms for pair in m})
        bit = {pair: 1 << i for i, pair in enumerate(pairs)}
        return pairs, [(sum(map(bit.__getitem__, m)), c) for m, c in self.sorted_terms()]

    def to_json_obj(self) -> list:
        return [{"coeff": str(Fraction(c)), "vars": [[var_to_str(v), e] for v, e in m]}
                for m, c in self.sorted_terms()]

    def __repr__(self) -> str:
        if not self:
            return "Polynomial(0)"
        bits = []
        for m, c in self.sorted_terms()[:8]:
            mono = "*".join(f"{var_to_str(v)}^{e}" if e > 1 else var_to_str(v)
                            for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        suffix = f" ... ({len(self)} terms)" if len(self) > 8 else ""
        return f"Polynomial({' + '.join(bits)}{suffix})"
