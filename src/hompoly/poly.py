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
exact coefficients (int or Fraction).  Equality is structural equality of
these canonical forms, so two polynomials are == exactly when they are the
same polynomial over Q.
"""

from __future__ import annotations

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
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Coeff] | None = None):
        cleaned: dict[Monomial, Coeff] = {}
        if terms:
            for m, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    cleaned[m] = c
        self._terms = cleaned

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

    # -- inspection -----------------------------------------------------

    def terms(self):
        return self._terms.items()

    def coefficient(self, m: Monomial) -> Coeff:
        return self._terms.get(m, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

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
        if not c:
            return Polynomial()
        return Polynomial({m: cc * c for m, cc in self._terms.items()})

    def divide_exact(self, c: Coeff) -> "Polynomial":
        """Divide every coefficient by the nonzero constant c, exactly."""
        if not c:
            raise ZeroDivisionError("divide_exact by zero")
        return self.scale(1 / Fraction(c))

    # -- substitution and slicing -----------------------------------------

    def substitute(self, mapping: Mapping[VarId, object]) -> "Polynomial":
        """Simultaneous substitution; unmapped variables are unchanged.

        Values may be VarIds (relabeling), numbers, or Polynomials.  When
        every value is a scalar multiple of its own variable, or zero, each
        surviving monomial is kept as it is and only its coefficient is
        multiplied.  Other single-term values are merged into each monomial,
        which is re-sorted; general polynomials fall back to product
        expansion.
        """
        norm: dict[VarId, Polynomial] = {}
        simple: dict[VarId, tuple[Monomial, Coeff]] = {}
        all_simple = in_place = True
        for v, val in mapping.items():
            if isinstance(val, Polynomial):
                p = val
            elif isinstance(val, tuple):  # VarId
                p = Polynomial.variable(val)
            elif isinstance(val, (int, Fraction)):
                p = Polynomial.constant(val)
            else:
                raise TypeError(f"cannot substitute value of type {type(val)}")
            norm[v] = p
            if len(p._terms) <= 1:
                m, c = next(iter(p._terms.items()), ((), 0))
                simple[v] = (m, c)
                if c and m != ((v, 1),):
                    in_place = False
            else:
                all_simple = False

        if all_simple and in_place:
            scale_of = {v: c for v, (_, c) in simple.items()}
            out: dict[Monomial, Coeff] = {}
            for m, c in self._terms.items():
                for v, e in m:
                    if v in scale_of:
                        c *= scale_of[v] ** e
                        if not c:
                            break
                if c:
                    out[m] = c
            return Polynomial(out)

        if all_simple:
            out = {}
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
        """Terms in graded-lexicographic order over the canonical VarId order."""
        return sorted(self._terms.items(),
                      key=lambda it: (sum(e for _, e in it[0]), it[0]))

    def to_json_obj(self) -> list:
        return [{"coeff": str(Fraction(c)), "vars": [[var_to_str(v), e] for v, e in m]}
                for m, c in self.sorted_terms()]

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        bits = []
        for m, c in self.sorted_terms()[:8]:
            mono = "*".join(f"{var_to_str(v)}^{e}" if e > 1 else var_to_str(v)
                            for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        suffix = f" ... ({len(self._terms)} terms)" if len(self._terms) > 8 else ""
        return f"Polynomial({' + '.join(bits)}{suffix})"
