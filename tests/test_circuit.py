"""Circuit IR: symbolic evaluation, sizing, interpolation extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hompoly.circuit import (Circuit, CircuitBuilder, eval_symbolic, extract_homc,
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


def reference_lagrange_weights(k, delta):
    """The weights computed in Fractions throughout, as lagrange_weights
    once did."""
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


def test_lagrange_weights_pick_one_coefficient():
    for delta in range(9):
        for k in range(delta + 1):
            w = lagrange_weights(k, delta)
            for d in range(delta + 1):
                s = sum(wj * Fraction(tj) ** d for tj, wj in enumerate(w))
                assert s == (1 if d == k else 0)
            assert all(type(wj) is Fraction for wj in w)
            assert [(wj.numerator, wj.denominator) for wj in w] == \
                [(wj.numerator, wj.denominator) for wj in reference_lagrange_weights(k, delta)]


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
    # every gate's inputs precede it, which eval_symbolic's one pass relies on
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
def small_builds(draw, max_degree=4):
    """A builder of random gates over CVARS with add, mul and oracle gates
    (oracle g bound to ORACLE), and its last gate, whose total degree is at
    most max_degree.  Earlier gates need not feed it."""
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
    return b, gates[-1][0]


def small_circuits():
    return small_builds().map(lambda built: built[0].freeze(built[1]))


def evaluate(c):
    return eval_symbolic(c, ORACLE)


def generic_eval(c, oracle):
    """eval_symbolic's walk with every product by the generic __mul__,
    starting from the constant 1."""
    values = {}
    for gid, (kind, arg) in enumerate(c.gates):  # inputs precede their gate
        if kind == "const":
            values[gid] = Polynomial.constant(arg)
        elif kind == "var":
            values[gid] = Polynomial.variable(arg)
        elif kind == "add":
            values[gid] = sum((values[i] for i in arg), Polynomial.zero())
        elif kind == "mul":
            acc = Polynomial.constant(1)
            for i in arg:
                acc = acc * values[i]
            values[gid] = acc
        else:
            values[gid] = oracle.substitute(
                dict(zip(c.oracle_vars, [values[i] for i in arg])))
    return values[c.output]


@st.composite
def product_builds(draw):
    """A builder of products of three or four factors drawn from constants
    (zero included), variables, oracle calls and small sums, and the
    product's gate; not every factor drawn from need feed it."""
    b = CircuitBuilder()
    b.declare_oracle((ORACLE_ARG,))
    leaves = [b.var(v) for v in CVARS]
    leaves += [b.const(c) for c in draw(st.lists(st.fractions(-2, 2, max_denominator=3),
                                                 min_size=1, max_size=3))]
    leaves.append(b.oracle([draw(st.sampled_from(leaves))]))
    leaves.append(b.add(*draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2))))
    factors = draw(st.lists(st.sampled_from(leaves), min_size=3, max_size=4))
    return b, b.mul(*factors)


OPS = ('add', 'mul', 'oracle')


def reachable(c):
    """The ids of the gates reachable from c's output, by a walk over its
    inputs; the reference for what freeze keeps."""
    seen = set()
    stack = [c.output]
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        g = c.gates[gid]
        if g[0] in OPS:
            stack.extend(g[1])
    return seen


def assert_pruned(c, unpruned=None):
    """c holds only the gates reachable from its output, each after its
    inputs, and size(c) counts the non-leaf gates that a walk of unpruned
    (the same circuit with every gate its builder made; c itself when not
    given) reaches."""
    unpruned = unpruned or c
    fed = set()
    for gid, (kind, arg) in enumerate(c.gates):
        inputs = arg if kind in OPS else ()
        assert all(i < gid for i in inputs)
        fed.update(inputs)
    assert c.output == len(c.gates) - 1
    assert fed == set(range(c.output))  # every gate but the output feeds one
    assert size(c) == sum(1 for gid in reachable(unpruned)
                          if unpruned.gates[gid][0] in OPS)


@given(st.one_of(small_builds(), product_builds()))
@settings(max_examples=100, deadline=None)
def test_mul_gates_agree_with_generic_products(built):
    b, output = built
    c = b.freeze(output)
    unpruned = Circuit(tuple(b._gates), output, b._oracle_vars)
    assert_pruned(c, unpruned)
    got, want = evaluate(c), generic_eval(c, ORACLE)
    assert got == want
    assert list(got.terms()) == list(want.terms())
    assert generic_eval(unpruned, ORACLE) == want


VAR_TARGETS = st.one_of(st.none(), st.integers(-2, 2),
                        st.sampled_from(CVARS + [aux_var("d")]))


@given(small_circuits(), st.fixed_dictionaries({v: VAR_TARGETS for v in CVARS}))
@settings(max_examples=60, deadline=None)
def test_substitute_vars_agrees_with_polynomial_substitute(c, draws):
    mapping = {v: t for v, t in draws.items() if t is not None}
    got = substitute_vars(c, mapping)
    assert_pruned(got)
    assert evaluate(got) == evaluate(c).substitute(mapping)


@given(small_circuits(), st.fractions(-3, 3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_scale_circuit_agrees_with_scale(c, w):
    got = scale_circuit(c, w)
    assert_pruned(got)
    assert evaluate(got) == evaluate(c).scale(w)


@given(small_circuits(), st.sets(st.sampled_from(CVARS), min_size=1),
       st.integers(0, 5), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_interpolate_homc_agrees_with_homogeneous_component(c, vs, k, slack):
    p = evaluate(c)
    delta = max(p.degree_in(vs), k) + slack
    direct = p.homogeneous_component(vs, k)
    got = interpolate_homc(c, vs, k, delta)
    assert_pruned(got)
    assert evaluate(got) == direct


# -- exact arithmetic and the oracle-input cases of eval_symbolic ------------------

def test_const_rejects_floats_and_takes_bools_as_ints():
    b = CircuitBuilder()
    with pytest.raises(TypeError):
        b.const(0.1)
    with pytest.raises(TypeError):
        b.const("1/2")
    assert eval_symbolic(b.freeze(b.const(True))) == Polynomial.constant(1)


def test_scale_circuit_rejects_floats():
    c = build_square_of_x_plus_one()
    with pytest.raises(TypeError):
        scale_circuit(c, 0.5)
    assert eval_symbolic(scale_circuit(c, False)) == Polynomial.zero()


def test_substitute_vars_rejects_float_targets():
    c = build_square_of_x_plus_one()
    with pytest.raises(TypeError):
        substitute_vars(c, {aux_var("x"): 1.5})


def assert_same_as_generic(c, oracle):
    got, want = eval_symbolic(c, oracle), generic_eval(c, oracle)
    assert got == want
    assert list(got.terms()) == list(want.terms())
    for _, coeff in got.terms():
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
    return got


MVARS = [aux_var(f"m{i}") for i in range(6)]


def test_add_gate_reinserts_a_cancelled_term_last():
    # as in pairwise sums: x cancels after two inputs and comes back after y
    x, y, z = MVARS[:3]
    b = CircuitBuilder()
    minus_x = b.mul(b.const(-1), b.var(x))
    c = b.freeze(b.add(b.add(b.var(x), b.var(y)), minus_x, b.add(b.var(x), b.var(z))))
    got = assert_same_as_generic(c, None)
    assert [m for m, _ in got.terms()] == [((y, 1),), ((x, 1),), ((z, 1),)]


def test_oracle_inputs_scaled_own_variables():
    # interpolation copies call the oracle at t_j times its own variables
    x, y, z = MVARS[:3]
    flat = Polynomial({monomial({x: 1, y: 1}): 3, monomial({y: 1, z: 1}): Fraction(-1, 2),
                       monomial({x: 1, y: 1, z: 1}): 5, (): 7})
    powers = Polynomial({monomial({x: 2, y: 1}): 1, monomial({x: 1, z: 3}): Fraction(2, 3),
                         monomial({y: 1}): -4})
    for p in (flat, powers):
        for vs, k in (([x, y], 1), ([x, y, z], 2), ([z], 0)):
            delta = p.degree_in(vs) + 1
            got = assert_same_as_generic(extract_homc((x, y, z), vs, k, delta), p)
            assert got == p.homogeneous_component(vs, k)
    nested = interpolate_homc(extract_homc((x, y, z), [x, y, z], 2, 4), [x], 1, 3)
    assert_same_as_generic(nested, powers)


def test_oracle_inputs_constants_and_other_variables():
    # the contraction's shape: each input is one term, a constant (zero
    # included) or another variable, so monomials merge into squares
    x, y, z, w = MVARS[:4]
    p = Polynomial({monomial({x: 1, y: 1}): 1, monomial({x: 1, z: 1}): -1,
                    monomial({y: 1, z: 1, w: 1}): Fraction(3, 2), monomial({w: 1}): 2})
    powers = Polynomial({monomial({x: 2, y: 1}): 1, monomial({z: 3}): Fraction(2, 3),
                         monomial({w: 1}): -4})
    c = extract_homc((x, y, z, w), [x, y, z, w], 3, 4)
    for oracle in (p, powers):
        for mapping in ({x: y}, {x: y, w: 0}, {z: 1, w: x}, {x: Fraction(1, 3), y: z},
                        {x: aux_var("u"), y: aux_var("u"), z: 2}):
            got = assert_same_as_generic(substitute_vars(c, mapping), oracle)
            assert got == oracle.homogeneous_component([x, y, z, w], 3).substitute(mapping)
    b = CircuitBuilder()
    b.declare_oracle((x, y))
    half_y = b.mul(b.var(y), b.const(Fraction(1, 2)))  # a fraction times its own variable
    assert_same_as_generic(b.freeze(b.oracle([b.var(z), half_y])), p)


def test_oracle_inputs_general_sums():
    x, y, z = MVARS[:3]
    p = Polynomial({monomial({x: 2}): 1, monomial({x: 1, y: 1}): Fraction(-1, 4),
                    monomial({y: 1, z: 1}): 3, (): -2})
    b = CircuitBuilder()
    b.declare_oracle((x, y))
    s = b.add(b.var(x), b.mul(b.const(Fraction(2, 3)), b.var(z)), b.const(1))
    d = b.add(b.var(y), b.mul(b.const(-1), b.var(y)))  # the zero polynomial
    for inputs in ([s, b.var(y)], [b.var(x), s], [s, s], [s, d]):
        c = b.freeze(b.oracle(inputs))
        got = assert_same_as_generic(c, p)
        vals = [generic_eval(b.freeze(i), p) for i in inputs]
        assert got == p.substitute(dict(zip((x, y), vals)))


@pytest.fixture
def substitute_calls(monkeypatch):
    """Count the calls of Polynomial.substitute from then on."""
    calls = []
    real = Polynomial.substitute

    def counting(self, mapping):
        calls.append(mapping)
        return real(self, mapping)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    return calls


def test_oracle_rewrite_routing(substitute_calls):
    # interpolation copies of a multilinear oracle are rescaled by the
    # evaluator, the zero scalar at node t_0 included; a non-multilinear
    # oracle and the contraction's inputs go through Polynomial.substitute
    x, y, z = MVARS[:3]
    flat = Polynomial({monomial({x: 1, y: 1}): 3, monomial({y: 1, z: 1}): Fraction(-1, 2),
                       monomial({x: 1, y: 1, z: 1}): 5, (): 7})
    powers = Polynomial({monomial({x: 2, y: 1}): 1, monomial({x: 1, z: 3}): Fraction(2, 3),
                         monomial({y: 1}): -4})
    once = extract_homc((x, y, z), [x, y], 1, 3)
    nested = interpolate_homc(extract_homc((x, y, z), [x, y, z], 2, 4), [x], 1, 3)
    assert eval_symbolic(once, flat) == flat.homogeneous_component([x, y], 1)
    assert eval_symbolic(nested, flat) == \
        flat.homogeneous_component([x, y, z], 2).homogeneous_component([x], 1)
    assert substitute_calls == []
    assert eval_symbolic(extract_homc((x, y, z), [x, y], 1, 4), powers) == \
        powers.homogeneous_component([x, y], 1)
    assert substitute_calls
    for mapping in ({x: y}, {x: y, z: 0}, {z: 1, y: aux_var("u")}):
        substitute_calls.clear()
        eval_symbolic(substitute_vars(once, mapping), flat)
        assert substitute_calls


@st.composite
def multilinear_oracles(draw):
    """A multilinear polynomial over 3-6 of MVARS with int and Fraction
    coefficients, and its variables."""
    vs = MVARS[:draw(st.integers(3, 6))]
    masks = draw(st.lists(st.integers(0, 2 ** len(vs) - 1), min_size=1, max_size=12))
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
    terms = {monomial({v: 1 for i, v in enumerate(vs) if mask >> i & 1}): draw(coeffs)
             for mask in masks}
    return Polynomial(terms), vs


TARGETS = st.one_of(st.sampled_from(MVARS + [aux_var("u")]), st.integers(-2, 2),
                    st.fractions(-2, 2, max_denominator=3))


@given(multilinear_oracles(), st.data())
@settings(max_examples=80, deadline=None)
def test_eval_symbolic_agrees_with_generic_eval_on_multilinear_oracles(oracle, data):
    p, vs = oracle
    c = oracle_call_circuit(vs)
    for _ in range(data.draw(st.integers(1, 2))):
        sub = data.draw(st.lists(st.sampled_from(vs), min_size=1, unique=True))
        delta = data.draw(st.integers(len(sub), len(sub) + 1))
        c = interpolate_homc(c, sub, data.draw(st.integers(0, delta)), delta)
    mapping = data.draw(st.dictionaries(st.sampled_from(vs), TARGETS))
    if mapping:
        c = substitute_vars(c, mapping)
    assert_same_as_generic(c, p)


@pytest.mark.parametrize("build", [
    lambda: lagrange_weights(3, 2),
    lambda: interpolate_homc(oracle_call_circuit([aux_var("a")]), [aux_var("a")], 2, 1),
], ids=["lagrange_weights", "interpolate_homc"])
def test_slice_degree_outside_zero_to_delta_is_refused(build):
    with pytest.raises(ValueError, match=r"need 0 <= k <= delta"):
        build()
