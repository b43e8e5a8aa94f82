"""Algebra layer: reordering, conjugation, scaling, Berezin integration.

Derived expectations are computed with an explicit adjacent-transposition
oracle (sort a flat variable word one swap at a time using only the
two-variable exchange rule) and frozen against the production path.
"""

import cmath
import copy
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgrass import algebra
from qgrass.algebra import (
    MONOMIAL_ONE,
    AlgebraContext,
    AlgebraElement,
    Monomial,
    PhaseTable,
    Variable,
    integrate_monomial,
    monomial_product,
    normal_order,
    parse_variable,
    q_power,
)
from qgrass.serialize import monomial_from_dict
from qgrass.suites import oracle_reorder


def oracle_sort(word, ctx):
    """Bubble an explicit variable word into canonical order, tracking q-phase.

    Only ever applies a*b = q**(-eps(b,a)) * b*a to adjacent out-of-order
    letters, so it shares no code with normal_order.
    """
    w = list(word)
    qexp = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i + 1] < w[i]:
                qexp -= ctx.phase_table.eps(w[i + 1], w[i])
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
    counts = {}
    for v in w:
        counts[v] = counts.get(v, 0) + 1
        if counts[v] >= ctx.n:
            return None
    mono = Monomial(tuple(sorted(counts.items(), key=lambda ve: ve[0].sort_key)))
    return q_power(ctx.n, qexp), mono


# -- q_power ------------------------------------------------------------------


def test_q_power_identity_and_periodicity():
    assert q_power(3, 0) == 1
    assert q_power(3, 3) == 1
    assert q_power(3, -3) == 1


def test_q_power_quarter_turn():
    assert abs(q_power(4, 1) - 1j) < 1e-15


def _closed_q_power(n, k):
    """q**k evaluated afresh, without q_power's memo."""
    k = int(k) % n
    return 1.0 + 0.0j if k == 0 else cmath.exp(2j * cmath.pi * k / n)


def _bits(c):
    return type(c), c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("first", [int, np.int64], ids=["int_first", "int64_first"])
def test_q_power_memo_is_bitwise_the_closed_form_for_either_exponent_type(first):
    # numpy divides complex numbers with other rounding than Python, so an
    # entry filled from a numpy exponent must still hold the int's bits
    second = np.int64 if first is int else int
    cases = [(n, k) for n in range(2, 65) for k in range(-3 * n, 3 * n)]
    big = 10**9 + 7
    cases += [(big, k) for k in (0, 1, -1, 5, big - 1, big + 3, 3 * big - 2, -7 * big + 11)]
    algebra._Q_POWERS.clear()
    for n, k in cases:
        want = _bits(_closed_q_power(n, k))
        assert _bits(q_power(n, first(k))) == want, (n, k)
        assert _bits(q_power(n, second(k))) == want, (n, k)
    # one entry per power met, never a whole grade
    assert len(algebra._Q_POWERS) == len({(n, k % n) for n, k in cases})


def test_q_power_reads_numpy_arguments_from_the_memo_with_the_ints_bits():
    # numpy n and k, each read before the Python-int call fills the entry,
    # including a Python k past the range of an int32 n
    big = 10**9 + 7
    small = np.iinfo(np.int32)
    types = (np.int32, np.int64, int)
    algebra._Q_POWERS.clear()
    for n in (2, 3, 5, 7, big):
        for k in (0, 1, -1, -n - 2, n, 3 * n + 1, 10**6 * n + 2, 2**40 + 5, -(2**40)):
            want = _bits(_closed_q_power(n, k))
            for tn, tk in itertools.product(types, types):
                if tk is np.int32 and not small.min <= k <= small.max:
                    continue
                assert _bits(q_power(tn(n), tk(k))) == want, (tn, n, tk, k)
            assert _bits(q_power(n, k)) == want, (n, k)
    assert all(type(n) is int and type(k) is int for n, k in algebra._Q_POWERS)


def test_grade_config_rejects_small_n():
    with pytest.raises(ValueError):
        AlgebraContext(1)


# -- multiplication -----------------------------------------------------------


def test_reorder_two_generators_n3():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    product = ctx.gen(t2) * ctx.gen(t1)
    expected = ctx.qp(-1) * ctx.gen(t1) * ctx.gen(t2)
    assert product.isclose(expected)


def test_nilpotency_square_at_n2():
    ctx = AlgebraContext(2)
    t = ctx.gen(ctx.theta(1))
    assert not (t * t).terms


def test_mixed_word_reorders_like_the_oracle():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    product = ctx.gen(t1) * ctx.gen(t2) * ctx.gen(t1)
    phase, mono = oracle_sort([t1, t2, t1], ctx)
    assert mono == Monomial(((t1, 2), (t2, 1)))
    assert abs(product.coefficient(mono) - phase) < 1e-12
    # one transposition of (t2, t1): phase is conj(q)
    assert abs(phase - ctx.qp(-1)) < 1e-12


def test_mixed_context_multiplication_rejected():
    a = AlgebraContext(2).one()
    b = AlgebraContext(3).one()
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize(
    "op",
    [
        lambda a: a + "x",
        lambda a: "x" + a,
        lambda a: a - "x",
        lambda a: "x" - a,
        lambda a: a * "x",
        lambda a: "x" * a,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_unsupported_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(AlgebraContext(3).one())


# -- conjugation ----------------------------------------------------------------


def test_conjugate_single_generator():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    assert ctx.gen(t).conjugate().isclose(ctx.gen(ctx.theta_bar(1)))


def test_conjugate_scalar_is_plain_conjugation():
    ctx = AlgebraContext(4)
    assert ctx.scalar(2 + 1j).conjugate().isclose(ctx.scalar(2 - 1j))


def test_conjugate_pair_picks_up_reordering_phase():
    # (q t1 t2)^dag = conj(q) * [tbar2 tbar1] = conj(q)*conj(q) tbar1 tbar2
    ctx = AlgebraContext(3)
    element = ctx.qp(1) * ctx.gen(ctx.theta(1)) * ctx.gen(ctx.theta(2))
    expected = ctx.qp(-2) * ctx.gen(ctx.theta_bar(1)) * ctx.gen(ctx.theta_bar(2))
    assert element.conjugate().isclose(expected)


# -- variable scaling -------------------------------------------------------------


def test_scale_variable_sign_flip():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    element = ctx.one() + ctx.gen(t)
    assert element.scale_variable(t, -1).isclose(ctx.one() - ctx.gen(t))


def test_scale_variable_identity():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    element = ctx.one() + 2 * ctx.gen(t, 2)
    assert element.scale_variable(t, 1).isclose(element)


def test_scale_variable_exponent_rule():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    scaled = ctx.gen(t, 2).scale_variable(t, ctx.q)
    assert scaled.isclose(ctx.qp(2) * ctx.gen(t, 2))


# -- Berezin integration -----------------------------------------------------------


def test_berezin_keeps_top_power_only():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    assert ctx.gen(t, 2).berezin_integrate(t).isclose(ctx.one())
    assert not ctx.gen(t, 1).berezin_integrate(t).terms
    assert not ctx.one().berezin_integrate(t).terms


def test_berezin_extraction_phase():
    # integral d(t2) of t1 t2^2 = q**(2*eps(t1,t2)) t1 at n = 3
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    element = ctx.word([(t1, 1), (t2, 2)])
    out = element.berezin_integrate(t2)
    assert out.isclose(ctx.qp(2) * ctx.gen(t1))


def test_multi_integral_order_and_phase():
    # innermost differential acts first; the full integral of t1 t2 at n=2
    # carries a unit-modulus phase (here -1 from one extraction swap)
    ctx = AlgebraContext(2)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    out = ctx.word([t1, t2]).multi_integrate((t1, t2))
    ((mono, coeff),) = out.terms.items()
    assert mono == Monomial(())
    assert abs(abs(coeff) - 1.0) < 1e-12
    assert abs(coeff - (-1.0)) < 1e-12


def test_multi_integral_empty_order_is_identity():
    ctx = AlgebraContext(2)
    element = ctx.one() + 3 * ctx.gen(ctx.theta(1))
    assert element.multi_integrate(()).isclose(element)


def test_multi_integral_missing_top_power_vanishes():
    ctx = AlgebraContext(2)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    assert not ctx.gen(t1).multi_integrate((t1, t2)).terms


def test_multi_integral_rejects_repeats():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    with pytest.raises(ValueError):
        ctx.one().multi_integrate((t, t))


# -- property tests ------------------------------------------------------------------


@st.composite
def context_and_elements(draw, count=2):
    n = draw(st.integers(min_value=2, max_value=5))
    ctx = AlgebraContext(n)
    elements = []
    for _ in range(count):
        acc = ctx.zero()
        for _ in range(draw(st.integers(1, 3))):
            nvars = draw(st.integers(0, 2))
            blocks = []
            for _ in range(nvars):
                v = Variable(draw(st.integers(1, 3)), draw(st.booleans()))
                blocks.append((v, draw(st.integers(1, n - 1))))
            re = draw(st.floats(-2, 2, allow_nan=False))
            im = draw(st.floats(-2, 2, allow_nan=False))
            acc = acc + complex(re, im) * ctx.word(blocks)
        elements.append(acc)
    return ctx, elements


@settings(max_examples=80, deadline=None)
@given(context_and_elements(count=3))
def test_property_associativity(data):
    _, (a, b, c) = data
    assert ((a * b) * c - a * (b * c)).norm() < 1e-9


@settings(max_examples=80, deadline=None)
@given(context_and_elements(count=1))
def test_property_conjugation_involution(data):
    _, (a,) = data
    assert (a.conjugate().conjugate() - a).norm() < 1e-12


@settings(max_examples=80, deadline=None)
@given(context_and_elements(count=2), st.booleans())
def test_property_antihomomorphism_on_one_kind(data, barred):
    # restricted to operands of one conjugation kind, where the dagger is
    # consistent with the exchange relations (see CONJUGATION_OBSTRUCTION)
    ctx, _ = data
    rng = random.Random(hash((ctx.n, barred)))
    from qgrass.suites import _random_element

    a = _random_element(ctx, rng, kind=barred)
    b = _random_element(ctx, rng, kind=barred)
    assert ((a * b).conjugate() - b.conjugate() * a.conjugate()).norm() < 1e-9


def test_same_index_pair_breaks_antihomomorphism_by_q_squared():
    # theta*tbar = conj(q) tbar*theta conjugates to the q-phase variant, so
    # the dagger deviates by exactly q^2 on the minimal mixed product
    for n in (3, 4, 5):
        ctx = AlgebraContext(n)
        a, b = ctx.gen(ctx.theta(1)), ctx.gen(ctx.theta_bar(1))
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert lhs.isclose(ctx.qp(2) * rhs)
        assert not lhs.isclose(rhs)
    ctx2 = AlgebraContext(2)
    a, b = ctx2.gen(ctx2.theta(1)), ctx2.gen(ctx2.theta_bar(1))
    assert (a * b).conjugate().isclose(b.conjugate() * a.conjugate())


@settings(max_examples=80, deadline=None)
@given(context_and_elements(count=2), st.integers(1, 3), st.booleans())
def test_property_integration_linearity(data, index, barred):
    ctx, (a, b) = data
    v = Variable(index, barred)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = (alpha * a + beta * b).berezin_integrate(v)
    rhs = alpha * a.berezin_integrate(v) + beta * b.berezin_integrate(v)
    assert (lhs - rhs).norm() < 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(
        st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=6
    ),
)
def test_property_reordering_confluence(n, letters):
    ctx = AlgebraContext(n)
    word = [Variable(i, b) for i, b in letters]
    qexp, mono = normal_order([(v, 1) for v in word], ctx.phase_table, ctx.n)
    oracle = oracle_sort(word, ctx)
    if oracle is None:
        assert mono is None
        return
    phase, omono = oracle
    assert mono == omono
    assert abs(q_power(ctx.n, qexp) - phase) < 1e-12


@settings(max_examples=60, deadline=None)
@given(context_and_elements(count=1), st.integers(1, 3))
def test_property_nilpotency(data, index):
    ctx, (a,) = data
    v = Variable(index, False)
    for k in range(1, ctx.n):
        assert not (ctx.gen(v, k) * (ctx.gen(v, ctx.n - k) * a)).terms


def test_coefficient_of_word_divides_out_the_phase():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    element = 5.0 * ctx.word([(t2, 2), (t1, 2)])
    assert abs(element.coefficient_of_word([(t2, 2), (t1, 2)]) - 5.0) < 1e-12


def test_phase_table_override_flips_reordering():
    from qgrass.algebra import PhaseTable

    base = AlgebraContext(3)
    t1, t2 = base.theta(1), base.theta(2)
    flipped = AlgebraContext(3, PhaseTable(overrides=(((t1), (t2), -1),)))
    # with eps(t1, t2) = -1 the descending product reorders with q, not qbar
    assert (flipped.gen(t2) * flipped.gen(t1)).isclose(
        flipped.qp(1) * flipped.word([t1, t2])
    )
    assert (base.gen(t2) * base.gen(t1)).isclose(base.qp(-1) * base.word([t1, t2]))
    # untouched pairs keep the default
    t3 = flipped.theta(3)
    assert (flipped.gen(t3) * flipped.gen(t1)).isclose(
        flipped.qp(-1) * flipped.word([t1, t3])
    )


# -- monomial primitives against the adjacent-swap oracle ---------------------

PRIMITIVE_VARIABLES = sorted(Variable(i, b) for i in (1, 2, 3) for b in (True, False))
PRIMITIVE_TABLES = {
    "default": PhaseTable(),
    "override": PhaseTable(
        overrides=(
            (Variable(1), Variable(2), 2),
            (Variable(1, True), Variable(3), -1),
            (Variable(2, True), Variable(2), 3),
        )
    ),
}


def _flatten(mono):
    return [v for v, e in mono.exps for _ in range(e)]


def _random_canonical(rng, n):
    return Monomial(
        tuple((v, int(rng.integers(1, n))) for v in PRIMITIVE_VARIABLES if rng.random() < 0.5)
    )


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monomial_product_matches_oracle(n, table):
    ctx = AlgebraContext(n, PRIMITIVE_TABLES[table])
    rng = np.random.default_rng(100 * n + len(table))
    outcomes = set()
    for _ in range(60):
        a, b = _random_canonical(rng, n), _random_canonical(rng, n)
        qexp, mono = monomial_product(a, b, ctx.phase_table, n)
        want_exp, want_mono = oracle_reorder(_flatten(a) + _flatten(b), ctx, rng)
        assert mono == want_mono
        if mono is not None:
            assert qexp % n == want_exp
        outcomes.add(mono is None)
    assert outcomes == {True, False}  # both nilpotent collapse and survivors


def _reference_integral(mono, order, ctx, rng):
    """Integrate from the right: cur = q**-e * (v**(n-1) rest) with word = q**e cur."""
    qexp, cur = 0, mono
    for v in reversed(order):
        if cur.exponent(v) != ctx.n - 1:
            return None
        rest = Monomial(tuple(b for b in cur.exps if b[0] != v))
        e, word_mono = oracle_reorder([v] * (ctx.n - 1) + _flatten(rest), ctx, rng)
        assert word_mono == cur
        qexp -= e
        cur = rest
    return qexp % ctx.n, cur


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integrate_monomial_matches_oracle(n, table):
    ctx = AlgebraContext(n, PRIMITIVE_TABLES[table])
    rng = np.random.default_rng(200 * n + len(table))
    outcomes = set()
    for _ in range(60):
        size = int(rng.integers(0, 4))
        order = [PRIMITIVE_VARIABLES[i] for i in rng.permutation(6)[:size]]
        blocks = []
        for v in PRIMITIVE_VARIABLES:
            r = rng.random()
            if v in order and r < 0.8:
                blocks.append((v, n - 1))
            elif v in order and r < 0.9 and n > 2:
                blocks.append((v, int(rng.integers(1, n - 1))))  # below n-1
            elif v not in order and r < 0.5:
                blocks.append((v, int(rng.integers(1, n))))
        mono = Monomial(tuple(blocks))
        qexp, rest = integrate_monomial(mono, order, ctx.phase_table, n)
        want = _reference_integral(mono, order, ctx, rng)
        if want is None:
            assert rest is None
        else:
            assert (qexp % n, rest) == want
        outcomes.add(rest is None)
    assert outcomes == {True, False}


# -- native-tuple values and the flat phase table -----------------------------


def _canonical_key(v):
    return (v.index, 0 if v.barred else 1)


def _recursive_eps(table, x, y):
    """eps(x, y) as the recursive scan over the overrides defined it."""
    if x == y:
        return 0
    if _canonical_key(y) < _canonical_key(x):
        return -_recursive_eps(table, y, x)
    for (a, b, e) in table.overrides:
        if (a, b) == (x, y):
            return e
        if (a, b) == (y, x):
            return -e
    return 1


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
def test_flat_eps_matches_recursive_definition(table):
    phase = PRIMITIVE_TABLES[table]
    for x in PRIMITIVE_VARIABLES:
        for y in PRIMITIVE_VARIABLES:
            assert phase.eps(x, y) == _recursive_eps(phase, x, y), (x, y)


def test_phase_table_rejects_an_override_of_a_variable_with_itself():
    with pytest.raises(ValueError, match="with itself"):
        PhaseTable(overrides=((Variable(2), Variable(2), 1),))


@pytest.mark.parametrize(
    "second", [(2, 1, 2), (1, 2, -1)], ids=["reversed_same_sign", "same_order_other_value"]
)
def test_phase_table_rejects_disagreeing_overrides_of_one_pair(second):
    t = {1: Variable(1), 2: Variable(2)}
    a, b, e = second
    with pytest.raises(ValueError, match="conflicting"):
        PhaseTable(overrides=((t[1], t[2], 2), (t[a], t[b], e)))


def test_phase_table_accepts_agreeing_overrides_in_either_orientation():
    t1, t2 = Variable(1), Variable(2)
    table = PhaseTable(overrides=((t1, t2, 2), (t2, t1, -2), (t1, t2, 2)))
    assert (table.eps(t1, t2), table.eps(t2, t1)) == (2, -2)
    # equality and hash come from the overrides alone
    twin = PhaseTable(overrides=((t1, t2, 2), (t2, t1, -2), (t1, t2, 2)))
    assert twin == table and hash(twin) == hash(table)
    assert AlgebraContext(3, twin) == AlgebraContext(3, table)
    assert PhaseTable() != table


def _pickle_round_trip(value):
    return [pickle.loads(pickle.dumps(value, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize(
    "clone",
    [lambda v: [copy.copy(v)], lambda v: [copy.deepcopy(v)], _pickle_round_trip],
    ids=["copy", "deepcopy", "pickle"],
)
def test_variables_and_monomials_survive_copy_and_pickle(clone):
    tb2 = Variable(2, barred=True)
    mono = Monomial(((Variable(1), 2), (tb2, 1)))
    for value in (Variable(1), tb2, mono, MONOMIAL_ONE):
        for twin in clone(value):
            assert twin == value and hash(twin) == hash(value)
            assert type(twin) is type(value)
    for twin in clone(tb2):
        assert (twin.index, twin.barred, twin.name) == (2, True, "theta_bar_2")
    for twin in clone(mono):
        assert all(type(v) is Variable for v, _ in twin)
        assert str(twin) == "theta_1^2*theta_bar_2"


def test_variables_sort_canonically_and_keep_their_names():
    mixed = [Variable(10), Variable(2), Variable(1), Variable(2, True), Variable(10, True), Variable(1, True)]
    assert [v.name for v in sorted(mixed)] == [
        "theta_bar_1", "theta_1", "theta_bar_2", "theta_2", "theta_bar_10", "theta_10",
    ]
    assert sorted(mixed) == sorted(mixed, key=_canonical_key)
    tb3 = Variable(3, barred=True)
    assert repr(tb3) == str(tb3) == tb3.name == "theta_bar_3"
    assert (tb3.index, tb3.barred, tb3.sort_key) == (3, True, (3, 0))
    assert tb3.conjugate == Variable(3) and type(tb3.conjugate) is Variable
    assert Variable(3).conjugate == tb3
    for bad in (0, -1):
        with pytest.raises(ValueError, match=">= 1"):
            Variable(bad)


def test_monomial_keeps_its_strings_and_queries():
    t1, tb2 = Variable(1), Variable(2, barred=True)
    mono = Monomial(((t1, 3), (tb2, 1)))
    assert str(mono) == "theta_1^3*theta_bar_2"
    assert repr(mono) == "Monomial(exps=((theta_1, 3), (theta_bar_2, 1)))"
    assert str(MONOMIAL_ONE) == "1" and MONOMIAL_ONE == Monomial(())
    assert mono.exps == mono
    assert (mono.exponent(t1), mono.exponent(tb2), mono.exponent(Variable(2))) == (3, 1, 0)
    assert mono.degree_split() == (3, 1)


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_order_matches_oracle_on_random_words(n, table):
    ctx = AlgebraContext(n, PRIMITIVE_TABLES[table])
    rng = np.random.default_rng(300 * n + len(table))
    outcomes = set()
    for _ in range(80):
        blocks = [
            (PRIMITIVE_VARIABLES[int(rng.integers(0, 6))], int(rng.integers(1, n)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        qexp, mono = normal_order(blocks, ctx.phase_table, n)
        want_exp, want_mono = oracle_reorder([v for v, e in blocks for _ in range(e)], ctx, rng)
        assert mono == want_mono
        if mono is not None:
            assert qexp % n == want_exp
        outcomes.add(mono is None)
    assert outcomes == {True, False}


def _fold_normal_order(blocks, table, n):
    """The left fold of monomial_product that normal_order replaced."""
    qexp, acc = 0, MONOMIAL_ONE
    for (v, e) in blocks:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("negative exponent in monomial word")
        if e >= n:
            return 0, None
        k, acc = monomial_product(acc, Monomial(((v, e),)), table, n)
        if acc is None:
            return 0, None
        qexp += k
    return qexp, acc


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_order_matches_the_product_fold(n, table):
    phases = PRIMITIVE_TABLES[table]
    rng = np.random.default_rng(700 * n + len(table))
    seen = set()
    for _ in range(1500):
        # exponents -1..n: zeros, negatives and single blocks already at n included
        blocks = [
            (PRIMITIVE_VARIABLES[int(rng.integers(0, 6))], int(rng.integers(-1, n + 1)))
            for _ in range(int(rng.integers(0, 7)))
        ]
        try:
            want = _fold_normal_order(blocks, phases, n)
        except ValueError:
            with pytest.raises(ValueError, match="negative exponent"):
                normal_order(blocks, phases, n)
            seen.add("raises")
            continue
        assert normal_order(blocks, phases, n) == want  # the integer exponent, not mod n
        if want[1] is None:
            seen.add("vanishes before a negative" if any(e < 0 for _, e in blocks) else "vanishes")
        else:
            seen.add("survives")
    assert seen == {"raises", "vanishes", "vanishes before a negative", "survives"}


def test_parse_variable_round_trips_every_name():
    for v in PRIMITIVE_VARIABLES + [Variable(12), Variable(12, barred=True)]:
        parsed = parse_variable(v.name)
        assert parsed == v and type(parsed) is Variable


@pytest.mark.parametrize(
    "name",
    ["theta_01", "theta_+1", "theta_ 1", "theta_1 ", "theta_1\n", "theta_bar_01", "theta_0",
     "theta_", "theta_bar_", "theta_x", "Theta_1", "theta_\u0661", "1"],
)
def test_parse_variable_rejects_names_that_do_not_round_trip(name):
    with pytest.raises(ValueError, match="cannot parse variable name"):
        parse_variable(name)


def test_monomial_from_dict_rejects_a_repeated_variable():
    with pytest.raises(ValueError):
        monomial_from_dict({"theta_1": 1, "theta_01": 2})
    mono = monomial_from_dict({"theta_2": 1, "theta_bar_1": 2})
    assert mono == Monomial(((Variable(1, barred=True), 2), (Variable(2), 1)))
    assert type(mono) is Monomial


def _random_variable_by_randrange(rng, max_index=3):
    """The suite's random variable as it was first written, drawn by randrange."""
    return Variable(rng.randrange(1, max_index + 1), rng.random() < 0.5)


def _random_element_by_fold(ctx, rng, max_terms=3, kind=None):
    """The suite's random element as it was first written: one element sum per term,
    every draw through randrange and gauss."""
    acc = ctx.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        nvars = rng.randrange(0, 3)
        blocks = []
        for _ in range(nvars):
            v = _random_variable_by_randrange(rng)
            if kind is not None:
                v = Variable(v.index, kind)
            blocks.append((v, rng.randrange(1, ctx.n)))
        coeff = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        acc = acc + coeff * ctx.word(blocks)
    return acc


@pytest.mark.parametrize("table", [PhaseTable(), PhaseTable(((Variable(1), Variable(2), 2),))],
                         ids=["default", "override"])
def test_random_element_matches_the_element_fold(table):
    from qgrass.suites import _random_element

    for n in (2, 3, 4, 5):
        ctx = AlgebraContext(n, phase_table=table)
        for seed in range(40):
            for kind in (None, False, True):
                rng_new, rng_old = (random.Random(1000 * seed + n) for _ in range(2))
                got = _random_element(ctx, rng_new, max_terms=6, kind=kind)
                want = _random_element_by_fold(ctx, rng_old, max_terms=6, kind=kind)
                assert got.terms == want.terms  # same monomials, bitwise equal coefficients
                assert list(got.terms) == list(want.terms)
                assert rng_new.random() == rng_old.random()  # same draws


@pytest.mark.parametrize("lo", [0, 1])
def test_draw_helpers_are_randrange_and_gauss(lo):
    # the same values and the same generator state as random.Random's own calls
    from qgrass.suites import _gauss_pair, _random_variable, _random_word, _randrange

    widths = [*range(1, 8), 2**31, 2**32 + 1, 10**9 + 6, 2**70 + 3]
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for m in widths:
            assert _randrange(new.getrandbits, lo, lo + m) == old.randrange(lo, lo + m)
            want = complex(old.gauss(0.0, 1.0), old.gauss(0.0, 1.0))
            assert _bits(_gauss_pair(new)) == _bits(want)
        assert _random_variable(new) == _random_variable_by_randrange(old)
        want = [_random_variable_by_randrange(old) for _ in range(old.randrange(1, 7))]
        assert _random_word(new) == want
        assert new.getstate() == old.getstate()


class _Scripted(random.Random):
    """A generator whose random() returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_gauss_pair_reads_a_negative_zero_part_as_gauss_does():
    # random() = 0.0 for the radius gives sqrt(-0.0) = -0.0, and gauss's
    # 0.0 + z turns each -0.0 part into 0.0
    from qgrass.suites import _gauss_pair

    for angle in (0.1, 0.3, 0.6, 0.9):
        got = _gauss_pair(_Scripted([angle, 0.0]))
        old = _Scripted([angle, 0.0])
        want = complex(old.gauss(0.0, 1.0), old.gauss(0.0, 1.0))
        assert _bits(got) == _bits(want) == _bits(0j)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suite_algebra_is_reproducible_and_leaves_numpys_global_state_alone(seed):
    from qgrass.suites import suite_algebra

    def snapshot(items):
        return [(it.item_id, it.status, repr(it.payload), it.flags) for it in items]

    before = np.random.get_state()
    first = suite_algebra(seed=seed)
    after = np.random.get_state()
    assert snapshot(first) == snapshot(suite_algebra(seed=seed))
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


# -- element results against the public-constructor path ----------------------


def _same_bits(x, y):
    assert list(x.terms) == list(y.terms)  # same monomials, same order
    assert [_bits(c) for c in x.terms.values()] == [_bits(c) for c in y.terms.values()]


def _ref_add(a, b):
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out.get(m, 0.0) + c
    return AlgebraElement(a.ctx, out)


def _ref_neg(a):
    return AlgebraElement(a.ctx, {m: -c for m, c in a.terms.items()})


def _ref_scale(a, s):
    return AlgebraElement(a.ctx, {m: c * s for m, c in a.terms.items()})


def _ref_mul(a, b):
    n, table, out = a.ctx.n, a.ctx.phase_table, {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            qexp, mono = monomial_product(ma, mb, table, n)
            if mono is not None:
                out[mono] = out.get(mono, 0.0) + ca * cb * _closed_q_power(n, qexp)
    return AlgebraElement(a.ctx, out)


def _ref_conjugate(a):
    n, table, out = a.ctx.n, a.ctx.phase_table, {}
    for mono, c in a.terms.items():
        qexp, new = normal_order([(v.conjugate, e) for (v, e) in reversed(mono)], table, n)
        if new is not None:
            out[new] = out.get(new, 0.0) + c.conjugate() * _closed_q_power(n, qexp)
    return AlgebraElement(a.ctx, out)


def _ref_integrate(a, order):
    n, table, out = a.ctx.n, a.ctx.phase_table, {}
    for mono, c in a.terms.items():
        qexp, rest = integrate_monomial(mono, order, table, n)
        if rest is not None:
            out[rest] = c * _closed_q_power(n, qexp)
    return AlgebraElement(a.ctx, out)


def _ref_word(ctx, blocks):
    qexp, mono = normal_order(blocks, ctx.phase_table, ctx.n)
    terms = {} if mono is None else {mono: _closed_q_power(ctx.n, qexp)}
    return AlgebraElement(ctx, terms)


@pytest.fixture
def adopted(monkeypatch):
    """Check every dict the algebra adopts against the public constructor on a
    copy of it; the returned list counts the dicts that held an exact zero."""
    real = AlgebraElement._adopt
    zero_drops = []

    def checked(ctx, terms):
        want = AlgebraElement(ctx, dict(terms))
        if not all(terms.values()):
            zero_drops.append(len(terms) - len(want.terms))
        got = real(ctx, terms)
        _same_bits(got, want)
        return got

    monkeypatch.setattr(AlgebraElement, "_adopt", staticmethod(checked))
    return zero_drops


@pytest.mark.parametrize("table", sorted(PRIMITIVE_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_element_operations_are_bitwise_the_public_constructor_path(n, table, adopted):
    from qgrass.suites import _random_element

    ctx = AlgebraContext(n, phase_table=PRIMITIVE_TABLES[table])
    rng = random.Random(n)
    for _ in range(40):
        a, b = _random_element(ctx, rng, max_terms=5), _random_element(ctx, rng, max_terms=5)
        s = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        v = Variable(rng.randrange(1, 4), rng.random() < 0.5)
        order = [v, Variable(rng.randrange(1, 4), rng.random() < 0.5)]
        if order[0] == order[1]:
            order.pop()
        blocks = [(Variable(rng.randrange(1, 4), rng.random() < 0.5), rng.randrange(1, n))
                  for _ in range(rng.randrange(0, 5))]
        for got, want in [
            (a + b, _ref_add(a, b)),
            (a - b, _ref_add(a, _ref_neg(b))),  # the former a + (-b)
            (-a, _ref_neg(a)),
            (a * b, _ref_mul(a, b)),
            (a * s, _ref_scale(a, s)),
            (2 * a, _ref_scale(a, 2)),
            (a * 0.5, _ref_scale(a, 0.5)),
            (a * np.complex128(s), _ref_scale(a, np.complex128(s))),  # values stay Python complex
            (a * np.float64(0.5), _ref_scale(a, np.float64(0.5))),
            (a.conjugate(), _ref_conjugate(a)),
            (a.multi_integrate(order), _ref_integrate(a, order)),
            (a.berezin_integrate(v), _ref_integrate(a, [v])),
            (ctx.word(blocks), _ref_word(ctx, blocks)),
            (ctx.gen(v, n - 1), _ref_word(ctx, [(v, n - 1)])),
            (a - a, ctx.zero()),
            (a + (-a), ctx.zero()),
            (a * 0, ctx.zero()),
        ]:
            _same_bits(got, want)

    # (1 + t)(1 - t) cancels t exactly
    one, t = ctx.one(), ctx.gen(ctx.theta(1))
    _same_bits((one + t) * (one - t), _ref_mul(_ref_add(one, t), _ref_add(one, _ref_neg(t))))
    assert MONOMIAL_ONE in ((one + t) * (one - t)).terms
    assert Monomial(((ctx.theta(1), 1),)) not in ((one + t) * (one - t)).terms
    assert adopted and all(k > 0 for k in adopted)  # the zero-drop branch ran


def test_subtraction_keeps_the_signed_zeros_of_adding_the_negation():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    monos = [MONOMIAL_ONE, Monomial(((t1, 1),)), Monomial(((t2, 2),))]
    parts = (0.0, -0.0, 1.5, -1.5)
    values = [complex(re, im) for re in parts for im in parts]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            a = AlgebraElement(ctx, {monos[0]: x, monos[1]: y})
            b = AlgebraElement(ctx, {monos[0]: y, monos[2]: x, monos[1]: values[(i + j) % 16]})
            _same_bits(a - b, _ref_add(a, _ref_neg(b)))
            _same_bits(b - a, _ref_add(b, _ref_neg(a)))
            _same_bits(a - y, _ref_add(a, _ref_neg(ctx.scalar(y))))


def test_public_constructor_copies_and_converts_its_mapping():
    ctx = AlgebraContext(3)
    t1 = Monomial(((ctx.theta(1), 1),))
    raw = {MONOMIAL_ONE: 2, t1: 0.5, Monomial(((ctx.theta(2), 1),)): 0}
    e = AlgebraElement(ctx, raw)
    assert e.terms is not raw
    assert [_bits(c) for c in e.terms.values()] == [_bits(2 + 0j), _bits(0.5 + 0j)]
    raw[t1] = 7.0
    raw[MONOMIAL_ONE] = 0
    assert e.terms == {MONOMIAL_ONE: 2 + 0j, t1: 0.5 + 0j}
    assert ctx.element(raw).terms == {t1: 7 + 0j}


def test_suite_algebra_runs_at_a_grade_too_large_to_tabulate():
    from qgrass.suites import suite_algebra

    items = suite_algebra(seed=0, cases=50, grades=(10**9 + 7,))
    assert [it.status for it in items] == ["pass"] * 5 + ["flagged"]
