"""Exact polynomial arithmetic, substitution and homogeneous slicing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_substitute
from hompoly.poly import (Polynomial, aux_var, edge_var, loop_var, monomial,
                          var_to_str, vertex_var)

X = aux_var("x")
Y = aux_var("y")


def poly_x():
    return Polynomial.variable(X)


def test_product_of_conjugates():
    x = poly_x()
    one = Polynomial.constant(1)
    assert (x + one) * (x - one) == x * x - one


def test_add_zero_is_identity():
    p = poly_x() + Polynomial.constant(3)
    assert p + Polynomial.zero() == p


def test_scale_rational():
    p = Polynomial.from_monomial(monomial({edge_var(1, 2): 1, edge_var(3, 4): 1}))
    q = p.scale(Fraction(1, 2))
    assert q.coefficient(monomial({edge_var(1, 2): 1, edge_var(3, 4): 1})) \
        == Fraction(1, 2)


def test_substitute_relabels_edge_variable():
    p = Polynomial.from_monomial(monomial({edge_var(0, 1): 1})) \
        * Polynomial.from_monomial(monomial({edge_var(2, 3): 1}))
    q = p.substitute({edge_var(2, 3): edge_var(0, 2)})
    assert q == Polynomial.from_monomial(
        monomial({edge_var(0, 1): 1, edge_var(0, 2): 1}))


def test_substitute_all_ones_counts_terms():
    terms = {monomial({edge_var(0, i): 1}): 1 for i in range(1, 6)}
    p = Polynomial(terms)
    assert p.substitute({v: 1 for v in p.variables()}) == Polynomial.constant(5)


def test_substitute_polynomial_value():
    x, y = poly_x(), Polynomial.variable(Y)
    p = x * x + x
    q = p.substitute({X: x * y})
    assert q == x * x * y * y + x * y


def test_homogeneous_component_examples():
    x1, x2, x3, x4 = (aux_var(f"x{i}") for i in range(1, 5))
    p = Polynomial({monomial({x1: 1, x2: 1}): 1,
                    monomial({x1: 1, x3: 1}): 1,
                    monomial({x3: 1, x4: 1}): 1})
    assert p.homogeneous_component([x1, x2], 2) == \
        Polynomial({monomial({x1: 1, x2: 1}): 1})
    assert p.homogeneous_component([x1, x2], 0) == \
        Polynomial({monomial({x3: 1, x4: 1}): 1})


def test_divide_exact():
    p = Polynomial({monomial({X: 1}): 6, (): 4})
    assert p.divide_exact(2) == Polynomial({monomial({X: 1}): 3, (): 2})
    assert p.divide_exact(1) == p
    with pytest.raises(ZeroDivisionError):
        p.divide_exact(0)


def test_coefficients_must_be_exact():
    m = monomial({X: 1})
    for bad in (0.1, 0.0, 2.0, complex(1), "1", None):
        with pytest.raises(TypeError):
            Polynomial({m: bad})
    one = Polynomial.constant(1)
    for bad in (0.5, 0.0):
        with pytest.raises(TypeError):
            one.scale(bad)
    with pytest.raises(TypeError):
        one.divide_exact(0.5)
    # a bool counts as an int, and a whole Fraction becomes one
    p = Polynomial({m: True, (): Fraction(6, 3)})
    assert [(c, type(c)) for _, c in p.sorted_terms()] == [(2, int), (1, int)]
    assert 3 * Polynomial({m: Fraction(1, 10)}) == Polynomial({m: Fraction(3, 10)})


def test_varid_string_roundtrip():
    assert [var_to_str(v) for v in (edge_var(3, 1), loop_var(2), vertex_var(7),
                                    aux_var("t:0"))] == ["e:1:3", "l:2", "v:7", "y:t:0"]


def test_canonical_variable_order():
    assert edge_var(9, 10) < loop_var(0) < vertex_var(0) < aux_var("a")


def test_json_roundtrip_sorted():
    p = Polynomial({monomial({edge_var(0, 1): 1}): Fraction(1, 2),
                    monomial({vertex_var(2): 3}): -4,
                    (): 7})
    obj = p.to_json_obj()
    degrees = [sum(e for _, e in t["vars"]) for t in obj]
    assert degrees == sorted(degrees)


VARS = [aux_var("a"), aux_var("b"), edge_var(0, 1), vertex_var(2), loop_var(3)]


@st.composite
def polynomials(draw, max_terms=5, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = {}
        for v in draw(st.sets(st.sampled_from(VARS), max_size=3)):
            mono[v] = draw(st.integers(1, max_exp))
        terms[monomial(mono)] = draw(st.integers(-4, 4))
    return Polynomial(terms)


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_homogeneous_components_reconstruct(p):
    vs = list(p.variables())
    total = Polynomial.zero()
    for k in range(p.degree_in(vs) + 1):
        total = total + p.homogeneous_component(vs, k)
    assert total == p


@given(polynomials(max_exp=1), polynomials(max_exp=1), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_homogeneous_component_of_product_convolves(p, q, k):
    vs = list((p * q).variables() | p.variables() | q.variables())
    left = (p * q).homogeneous_component(vs, k)
    right = Polynomial.zero()
    for i in range(k + 1):
        right = right + p.homogeneous_component(vs, i) \
            * q.homogeneous_component(vs, k - i)
    assert left == right


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def substitutions(draw):
    """A mapping over part of VARS; each value is a scalar multiple of its
    own variable (zero included), a constant or a relabel.  When in_place
    is drawn, every value is of the first kind, the shape of the
    interpolation copies, which substitute merges like any single term."""
    in_place = draw(st.booleans())
    kinds = ["scaled"] if in_place else ["scaled", "constant", "relabel"]
    mapping = {}
    for v in draw(st.sets(st.sampled_from(VARS))):
        kind = draw(st.sampled_from(kinds))
        if kind == "scaled":
            mapping[v] = Polynomial.variable(v).scale(draw(COEFFS))
        elif kind == "constant":
            mapping[v] = draw(COEFFS)
        else:
            mapping[v] = draw(st.sampled_from(VARS))
    return mapping


@given(polynomials(), substitutions())
@settings(max_examples=150, deadline=None)
def test_substitute_equals_term_by_term_expansion(p, mapping):
    q = p.substitute(mapping)
    assert q == reference_substitute(p, mapping)
    for m, c in q.terms():
        assert c and list(m) == sorted(m)
        assert len({v for v, _ in m}) == len(m) and all(e > 0 for _, e in m)


@pytest.mark.parametrize("build,error,match", [
    (lambda: edge_var(1, 1), ValueError, "endpoints must differ"),
    (lambda: Polynomial.variable(X).substitute({X: "x"}), TypeError, "cannot substitute"),
    (lambda: Polynomial.variable(X).homogeneous_component([X], -1), ValueError,
     "nonnegative"),
], ids=["edge_var", "substitute", "homogeneous_component"])
def test_poly_refuses_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()
