"""Circuit IR: symbolic evaluation, sizing, interpolation extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoly.circuit import (CircuitBuilder, eval_symbolic, extract_homc,
                             interpolate_homc, lagrange_weights, oracle_call_circuit,
                             scale_circuit, size, substitute_vars)
from hompoly.poly import Polynomial, aux_var, edge_var, monomial


def build_square_of_x_plus_one():
    b = CircuitBuilder()
    x = b.var(aux_var("x"))
    s = b.add(x, b.const(1))
    return b.freeze(b.mul(s, s))


def test_eval_plain_circuit():
    c = build_square_of_x_plus_one()
    x = Polynomial.variable(aux_var("x"))
    one = Polynomial.constant(1)
    assert eval_symbolic(c) == x * x + 2 * x + one


def test_shared_subgate_counts_once():
    c = build_square_of_x_plus_one()
    assert size(c) == 2  # one add, one mul; leaves are free


def test_single_add_gate_size():
    b = CircuitBuilder()
    out = b.add(b.var(aux_var("x")), b.var(aux_var("y")))
    assert size(b.freeze(out)) == 1


def test_oracle_gate_substitutes_inputs():
    a, bvar = aux_var("a"), aux_var("b")
    x, y = aux_var("x"), aux_var("y")
    b = CircuitBuilder()
    b.declare_oracle((a, bvar))
    call = b.oracle([b.var(x), b.add(b.var(y), b.const(1))])
    c = b.freeze(call)
    g = Polynomial.from_monomial(monomial({a: 1, bvar: 1}))
    xp, yp = Polynomial.variable(x), Polynomial.variable(y)
    assert eval_symbolic(c, g) == xp * yp + xp


def test_unbound_oracle_errors():
    c = oracle_call_circuit((aux_var("a"),))
    with pytest.raises(KeyError):
        eval_symbolic(c)


def test_lagrange_weights_pick_one_coefficient():
    delta = 5
    for k in range(delta + 1):
        w = lagrange_weights(k, delta)
        for d in range(delta + 1):
            s = sum(wj * Fraction(tj) ** d for tj, wj in enumerate(w))
            assert s == (1 if d == k else 0)


def random_multilinear(rng, nvars, max_terms, tag="z"):
    vs = [aux_var(f"{tag}{i}") for i in range(nvars)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = {v: 1 for v in vs if rng.random() < 0.4}
        terms[monomial(mono)] = rng.randint(-3, 3) or 1
    return Polynomial(terms), vs


def test_extract_homc_linear_slice():
    x1, x2 = aux_var("x1"), aux_var("x2")
    g = Polynomial({monomial({x1: 1, x2: 1}): 1, monomial({x1: 1}): 1, (): 1})
    c = extract_homc((x1, x2), [x1, x2], 1, 2)
    assert eval_symbolic(c, g) == Polynomial.variable(x1)
    c0 = extract_homc((x1, x2), [x1, x2], 0, 2)
    assert eval_symbolic(c0, g) == Polynomial.constant(1)


def test_extract_homc_equals_direct_slice_on_random_inputs():
    rng = random.Random(0)
    for _ in range(30):
        p, vs = random_multilinear(rng, rng.randint(2, 6), 8)
        sub = [v for v in vs if rng.random() < 0.6]
        delta = max(1, p.degree_in(sub))
        k = rng.randint(0, delta)
        c = extract_homc(tuple(vs), sub, k, delta)
        assert eval_symbolic(c, p) == p.homogeneous_component(sub, k)


def test_extract_homc_size_formula():
    vs = tuple(aux_var(f"v{i}") for i in range(7))
    c = extract_homc(vs, vs[:4], 2, 5)
    assert size(c) == (5 + 1) * (4 + 2) + 1


def test_extract_homc_cycle_slice():
    from hompoly import CYCLE, Graph, hom_poly, oracle_uhc
    from hompoly.graphs import all_edges
    F = hom_poly(Graph.single_edge(), 4, CYCLE)
    evars = [edge_var(i, j) for i, j in all_edges(4)]
    c = extract_homc(tuple(evars), evars, 4, 6)
    assert eval_symbolic(c, F) == oracle_uhc(4)


def test_nested_interpolation_grows_linearly():
    vs = tuple(aux_var(f"v{i}") for i in range(5))
    base = extract_homc(vs, vs, 2, 4)
    nested = interpolate_homc(base, vs[:2], 1, 2)
    assert size(nested) <= 4 * size(base)  # delta+1 copies plus combination
    # every gate's inputs precede it, which circuit._topo_order relies on
    for gid, gate in enumerate(nested.gates):
        inputs = gate[-1] if gate[0] in ('add', 'mul', 'oracle') else ()
        assert all(i < gid for i in inputs)
    rng = random.Random(1)
    p, _ = random_multilinear(rng, 5, 6, tag="v")
    direct = p.homogeneous_component(vs, 2).homogeneous_component(vs[:2], 1)
    assert eval_symbolic(nested, p) == direct


def test_substitute_vars_projects_and_relabels():
    x, y, z = aux_var("x"), aux_var("y"), aux_var("z")
    b = CircuitBuilder()
    out = b.mul(b.var(x), b.add(b.var(y), b.const(2)))
    c = b.freeze(out)
    c2 = substitute_vars(c, {x: 1, y: z})
    zp = Polynomial.variable(z)
    assert eval_symbolic(c2) == zp + Polynomial.constant(2)


def test_scale_circuit():
    c = build_square_of_x_plus_one()
    assert eval_symbolic(scale_circuit(c, Fraction(1, 2))) \
        == eval_symbolic(c).scale(Fraction(1, 2))


def test_oracle_arity_checked():
    b = CircuitBuilder()
    b.declare_oracle((aux_var("a"), aux_var("b")))
    with pytest.raises(ValueError):
        b.oracle([b.const(1)])


def test_oracle_redeclared_with_other_variables():
    b = CircuitBuilder()
    b.declare_oracle((aux_var("a"),))
    b.declare_oracle((aux_var("a"),))  # the same variables again are fine
    with pytest.raises(ValueError):
        b.declare_oracle((aux_var("b"),))


def test_oracle_called_before_declared():
    b = CircuitBuilder()
    with pytest.raises(ValueError):
        b.oracle([])


def test_oracle_over_no_variables():
    # a constant polynomial is an oracle over no variables, still declared
    # when the circuit is rebuilt
    b = CircuitBuilder()
    b.declare_oracle(())
    c = b.freeze(b.oracle([]))
    three = Polynomial.constant(3)
    assert eval_symbolic(c, three) == three
    assert eval_symbolic(substitute_vars(c, {}), three) == three


def test_nested_oracle_inputs_allowed():
    a = aux_var("a")
    x = aux_var("x")
    b = CircuitBuilder()
    b.declare_oracle((a,))
    inner = b.oracle([b.var(x)])
    outer = b.oracle([inner])
    c = b.freeze(outer)
    g = Polynomial.from_monomial(monomial({a: 2}))  # g(a) = a^2
    xp = Polynomial.variable(x)
    assert eval_symbolic(c, g) == xp * xp * xp * xp


CVARS = [aux_var("a"), aux_var("b"), aux_var("c")]
ORACLE_ARG = aux_var("p")
ORACLE = Polynomial.from_monomial(monomial({ORACLE_ARG: 2})) \
    + Polynomial.variable(ORACLE_ARG) + Polynomial.constant(-1)  # g(p) = p^2 + p - 1


@st.composite
def small_circuits(draw, max_degree=4):
    """Random circuits over CVARS with add, mul and oracle gates (oracle g
    bound to ORACLE), with total degree at most max_degree."""
    b = CircuitBuilder()
    b.declare_oracle((ORACLE_ARG,))
    gates = [(b.var(v), 1) for v in CVARS]
    gates += [(b.const(draw(st.integers(-3, 3))), 0) for _ in range(2)]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["add", "mul", "oracle"]))
        (i, di), (j, dj) = draw(st.lists(st.sampled_from(gates), min_size=2,
                                         max_size=2))
        if kind == "oracle" and 2 * di <= max_degree:
            gates.append((b.oracle([i]), 2 * di))
        elif kind == "mul" and di + dj <= max_degree:
            gates.append((b.mul(i, j), di + dj))
        else:
            gates.append((b.add(i, j), max(di, dj)))
    return b.freeze(gates[-1][0])


def evaluate(c):
    return eval_symbolic(c, ORACLE)


VAR_TARGETS = st.one_of(st.none(), st.integers(-2, 2),
                        st.sampled_from(CVARS + [aux_var("d")]))


@given(small_circuits(), st.fixed_dictionaries({v: VAR_TARGETS for v in CVARS}))
@settings(max_examples=60, deadline=None)
def test_substitute_vars_agrees_with_polynomial_substitute(c, draws):
    mapping = {v: t for v, t in draws.items() if t is not None}
    assert evaluate(substitute_vars(c, mapping)) == evaluate(c).substitute(mapping)


@given(small_circuits(), st.fractions(-3, 3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_scale_circuit_agrees_with_scale(c, w):
    assert evaluate(scale_circuit(c, w)) == evaluate(c).scale(w)


@given(small_circuits(), st.sets(st.sampled_from(CVARS), min_size=1),
       st.integers(0, 5), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_interpolate_homc_agrees_with_homogeneous_component(c, vs, k, slack):
    p = evaluate(c)
    delta = max(p.degree_in(vs), k) + slack
    direct = p.homogeneous_component(vs, k)
    assert evaluate(interpolate_homc(c, vs, k, delta)) == direct
