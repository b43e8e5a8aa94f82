"""Graded-state layer: quantization, builders, tensor products, closures."""

import cmath
import math

import numpy as np
import pytest

from qgrass.algebra import (
    MONOMIAL_ONE,
    AlgebraContext,
    Monomial,
    PhaseTable,
    Variable,
    integrate_monomial,
    monomial_product,
    q_power,
)
from qgrass.entangle import IntegralSpec, integrate_graded, monomial_basis, solve_weight
from qgrass.qstate import (
    GradedState,
    GrassmannResidueError,
    LadderSet,
    LevelSpace,
    PlainState,
    apply_annihilation,
    check_squeeze_closure,
    check_su_q2_closure,
    coherent_state,
    eigenstate_check,
    nilpotent_polynomial_state,
    q_commutator,
    quantize_exponent,
    squeezed_state_exp,
    squeezed_state_symmetric,
    tensor,
)
from qgrass.qstate import _summed, _twist


# -- quantization phases ---------------------------------------------------------


def test_quantize_phase_level_one_is_trivial():
    ctx = AlgebraContext(3)
    mono = Monomial(((ctx.theta(1), 1),))
    phase = q_power(ctx.n, quantize_exponent(mono, (1,)))
    assert abs(phase - 1.0) < 1e-15


def test_quantize_phase_vacuum_n3():
    ctx = AlgebraContext(3)
    mono = Monomial(((ctx.theta(1), 1),))
    phase = q_power(ctx.n, quantize_exponent(mono, (0,)))
    assert abs(phase - ctx.qp(-1)) < 1e-15


def test_quantize_phase_vacuum_n2():
    ctx = AlgebraContext(2)
    mono = Monomial(((ctx.theta(1), 1),))
    phase = q_power(ctx.n, quantize_exponent(mono, (0,)))
    assert abs(phase - (-1.0)) < 1e-15


def test_quantize_phase_barred_is_conjugate():
    ctx = AlgebraContext(3)
    t = Monomial(((ctx.theta(1), 1),))
    tb = Monomial(((ctx.theta_bar(1), 1),))
    pt = q_power(ctx.n, quantize_exponent(t, (2,)))
    ptb = q_power(ctx.n, quantize_exponent(tb, (2,)))
    assert abs(pt - ctx.qp(1)) < 1e-15
    assert abs(ptb - ctx.qp(-1)) < 1e-15


# -- coherent states ----------------------------------------------------------------


def test_coherent_state_qubit():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    state = coherent_state(ctx, t, 2)
    assert abs(state.coefficient(Monomial(()), (0,)) - 1.0) < 1e-12
    assert abs(state.coefficient(Monomial(((t, 1),)), (1,)) - (-1.0)) < 1e-12


def test_coherent_state_qutrit_amplitudes():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = coherent_state(ctx, t, 3)
    assert abs(state.coefficient(Monomial(()), (0,)) - 1.0) < 1e-12
    assert abs(state.coefficient(Monomial(((t, 1),)), (1,)) - ctx.qp(-1)) < 1e-12
    assert abs(
        state.coefficient(Monomial(((t, 2),)), (2,)) - 1.0 / math.sqrt(2.0)
    ) < 1e-12


def test_coherent_state_scale_flips_theta_term():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    state = coherent_state(ctx, t, 2, scale=-1)
    assert abs(state.coefficient(Monomial(((t, 1),)), (1,)) - 1.0) < 1e-12


def test_coherent_state_rejects_d_above_n():
    ctx = AlgebraContext(2)
    with pytest.raises(ValueError):
        coherent_state(ctx, ctx.theta(1), 3)


def test_eigenstate_property_n2_to_n6():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        state = coherent_state(ctx, ctx.theta(1), n)
        assert eigenstate_check(state, ctx.theta(1)) < 1e-12


def test_basis_ket_is_not_an_eigenstate():
    ctx = AlgebraContext(2)
    ket1 = GradedState(ctx, LevelSpace((2,)), {(Monomial(()), (1,)): 1.0})
    assert eigenstate_check(ket1, ctx.theta(1)) > 0.1


# -- squeezed states -----------------------------------------------------------------


def test_squeezed_symmetric_coefficients():
    ctx = AlgebraContext(3)
    v = ctx.theta(1)
    state = squeezed_state_symmetric(ctx, v)
    assert abs(state.coefficient(Monomial(()), (0,)) - 1.0) < 1e-12
    assert abs(
        state.coefficient(Monomial(((v, 1),)), (2,)) - 1.0 / math.sqrt(2.0)
    ) < 1e-12
    # coefficient relative to the word v*vbar (normal-ordering phase divided out)
    assert abs(
        state.coefficient_of_word([(v, 1), (v.conjugate, 1)], (0,)) - (-0.25)
    ) < 1e-12


def test_squeezed_symmetric_requires_grade_3():
    with pytest.raises(ValueError):
        squeezed_state_symmetric(AlgebraContext(4), AlgebraContext(4).theta(1))


def test_squeezed_exp_truncation():
    ctx2 = AlgebraContext(2)
    s2 = squeezed_state_exp(ctx2, ctx2.theta(1), 2)
    assert set(s2.terms) == {(Monomial(()), (0,))}

    ctx3 = AlgebraContext(3)
    v = ctx3.theta(1)
    s3 = squeezed_state_exp(ctx3, v, 3)
    assert abs(s3.coefficient(Monomial(()), (0,)) - 1.0) < 1e-12
    assert abs(s3.coefficient(Monomial(((v, 1),)), (2,)) - 1.0) < 1e-12

    s5 = squeezed_state_exp(ctx3, v, 5)
    want = ctx3.qp(-2) / 2.0
    assert abs(s5.coefficient(Monomial(((v, 2),)), (4,)) - want) < 1e-12
    assert len(s5.terms) == 3


# -- tensor products --------------------------------------------------------------------


def test_tensor_nilpotency_kills_double_excitation():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    pair = tensor([coherent_state(ctx, t, 2)] * 2)
    assert all(mono.exponent(t) < 2 for (mono, _) in pair.terms)


def test_tensor_coherent_pair_magnitudes():
    for n in (2, 3, 4):
        ctx = AlgebraContext(n)
        t1, t2 = ctx.theta(1), ctx.theta(2)
        pair = tensor([coherent_state(ctx, t1, n), coherent_state(ctx, t2, n)])
        for i in range(n):
            for j in range(n):
                word = []
                if i:
                    word.append((t1, i))
                if j:
                    word.append((t2, j))
                coeff = pair.coefficient_of_word(word, (i, j))
                want = 1.0 / math.sqrt(math.factorial(i) * math.factorial(j))
                assert abs(abs(coeff) - want) < 1e-12


def test_tensor_coherent_pair_phases_match_closed_formula():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    pair = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    for i in range(3):
        for j in range(3):
            word = ([(t1, i)] if i else []) + ([(t2, j)] if j else [])
            got = pair.coefficient_of_word(word, (i, j))
            want = ctx.qp(((j - i) - (i + j) ** 2) // 2) / math.sqrt(
                math.factorial(i) * math.factorial(j)
            )
            assert abs(got - want) < 1e-12


def test_tensor_single_variable_qubit_pair():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    pair = tensor([coherent_state(ctx, t, 2)] * 2)
    mono = Monomial(((t, 1),))
    assert abs(abs(pair.coefficient(mono, (0, 1))) - 1.0) < 1e-12
    assert abs(abs(pair.coefficient(mono, (1, 0))) - 1.0) < 1e-12


def test_tensor_rejects_context_mismatch():
    a = coherent_state(AlgebraContext(2), AlgebraContext(2).theta(1), 2)
    b = coherent_state(AlgebraContext(3), AlgebraContext(3).theta(1), 3)
    with pytest.raises(ValueError):
        tensor([a, b])


@pytest.mark.parametrize("ket", [(3,), (-1,), (0, 0)], ids=str)
def test_graded_state_rejects_out_of_range_ket(ket):
    # kets are checked where they enter; tensor and arithmetic do not re-check
    ctx = AlgebraContext(3)
    space = LevelSpace((3,))
    with pytest.raises(ValueError, match="out of range"):
        GradedState(ctx, space, {(Monomial(()), ket): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        GradedState.from_pairs(ctx, space, [(ctx.one(), ket)])


@pytest.mark.parametrize("ket", [(0, 3), (-1, 0), (0,), (0, 0, 0)], ids=str)
def test_plain_state_from_terms_rejects_out_of_range_ket(ket):
    with pytest.raises(ValueError, match=r"ket .* out of range for dims \(2, 3\)"):
        PlainState.from_terms((2, 3), {(0, 0): 0.5, ket: 0.5})


def test_tensor_canonical_form_is_stable():
    # stored terms are already canonical: rebuilding from them is a no-op
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    pair = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    rebuilt = GradedState(ctx, pair.space, pair.terms)
    assert rebuilt.isclose(pair)
    assert set(rebuilt.terms) == set(pair.terms)


def test_to_plain_raises_on_grassmann_residue():
    ctx = AlgebraContext(2)
    state = coherent_state(ctx, ctx.theta(1), 2)
    with pytest.raises(GrassmannResidueError):
        state.to_plain()


# -- polynomial raising states -------------------------------------------------------


def test_nilpotent_polynomial_state_bell():
    amp = 1.0 / math.sqrt(2.0)
    state = nilpotent_polynomial_state([amp, 0, 0, amp])
    assert abs(state.coefficient((0, 0)) - amp) < 1e-12
    assert abs(state.coefficient((1, 1)) - amp) < 1e-12
    assert abs(state.coefficient((0, 1))) < 1e-12


def test_nilpotent_polynomial_state_basis_cases():
    assert abs(nilpotent_polynomial_state([1, 0, 0, 0]).coefficient((0, 0)) - 1) < 1e-12
    assert abs(nilpotent_polynomial_state([0, 1, 0, 0]).coefficient((1, 0)) - 1) < 1e-12


# -- ladder operators and closures ------------------------------------------------------


def test_q_commutator_reduces_to_plain_commutator():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.allclose(q_commutator(a, b, 1.0), a @ b - b @ a)


def test_q_commutator_identity_pair():
    eye = np.eye(3, dtype=complex)
    q = cmath.exp(2j * cmath.pi / 3)
    assert np.allclose(q_commutator(eye, eye, q), (1 - q) * eye)


def test_b_z_diagonal_form_d3():
    ladders = LadderSet.build(3)
    q = ladders.q
    assert np.allclose(ladders.b_z, np.diag([1.0, 2.0 - q, -2.0 * q]))
    assert np.allclose(ladders.b_dag, ladders.b.conj().T)


def test_q_commutator_b_bdag_matches_direct_product():
    # direct 3x3 computation, independent of LadderSet
    q = cmath.exp(2j * cmath.pi / 3)
    b = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    direct = b @ b.conj().T - q * (b.conj().T @ b)
    assert np.allclose(direct, np.diag([1.0, 2.0 - q, -2.0 * q]))


def test_su_q2_closure_d3():
    report = check_su_q2_closure(3)
    assert report.closes
    assert report.residuals["joint"] < 1e-12
    assert abs(report.constants["lambda"] - (-3 * report.q)) < 1e-12


def test_su_q2_closure_d2():
    report = check_su_q2_closure(2)
    assert report.closes
    assert abs(report.constants["lambda"] - 2.0) < 1e-12


def test_su_q2_no_closure_d4():
    report = check_su_q2_closure(4)
    assert not report.closes
    assert report.residuals["joint"] > 0.1


def test_su_q2_closure_supports_custom_root():
    # scanning other roots at d = 3: only exp(2*pi*i/3) closes
    good = check_su_q2_closure(3, q=cmath.exp(2j * cmath.pi / 3))
    bad = check_su_q2_closure(3, q=1j)
    assert good.closes and not bad.closes


def test_squeeze_closure_constants_and_flag():
    report = check_squeeze_closure(3)
    assert report.closes
    assert abs(report.constants["mu"] - (-4.0)) < 1e-12
    assert abs(report.constants["nu"] - 4.0) < 1e-12
    assert abs(report.constants["mu"] + report.constants["nu"]) < 1e-12
    assert "SQUEEZE_CLOSURE_CONST" in report.flags


def test_squeeze_closure_oracle_matrices():
    # independent dense computation of [bz', b^2] on the three-level ladder
    b = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    b2 = b @ b
    bd2 = b2.conj().T
    bzp = bd2 @ b2 - b2 @ bd2
    assert np.allclose(bzp @ b2 - b2 @ bzp, -4.0 * b2)
    assert np.allclose(bzp @ bd2 - bd2 @ bzp, 4.0 * bd2)


def test_apply_annihilation_crosses_monomials_with_q_phase():
    # b (theta^m |m>) = q^m theta^m b|m>; checked against the eigenvalue relation
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = coherent_state(ctx, t, 3)
    lowered = apply_annihilation(state)
    shifted = state.left_multiply(ctx.gen(t))
    assert (lowered - shifted).norm() < 1e-12


def test_squeezed_symmetric_takes_no_level_count():
    ctx = AlgebraContext(3)
    with pytest.raises(TypeError):
        squeezed_state_symmetric(ctx, ctx.theta(1), 3)


# -- isclose operands ------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", ["element-str", "state-str", "state-element", "element-scalar"]
)
def test_isclose_rejects_foreign_operand(case):
    ctx = AlgebraContext(3)
    state = coherent_state(ctx, ctx.theta(1), 3)
    left, right = {
        "element-str": (ctx.one(), "x"),
        "state-str": (state, "x"),
        "state-element": (state, ctx.one()),
        "element-scalar": (ctx.scalar(2.0), 2.0),
    }[case]
    if case == "element-scalar":
        assert left.isclose(right)
        return
    with pytest.raises(TypeError):
        left.isclose(right)


def test_from_pairs_sums_elements_per_ket_and_checks_context():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = GradedState.from_pairs(
        ctx, LevelSpace((3,)), [(ctx.gen(t), (1,)), (ctx.one(), (0,)), (ctx.gen(t), [1])]
    )
    assert state.terms == {(Monomial(()), (0,)): 1.0, (Monomial(((t, 1),)), (1,)): 2.0}
    other = AlgebraContext(4)
    with pytest.raises(ValueError):
        GradedState.from_pairs(ctx, LevelSpace((3,)), [(other.one(), (0,))])


def test_state_times_element_is_rejected():
    # only scalars scale a state; an element must go through left_multiply
    ctx = AlgebraContext(3)
    state = coherent_state(ctx, ctx.theta(1), 3)
    for make in (lambda: state * ctx.one(), lambda: ctx.one() * state):
        with pytest.raises(TypeError):
            make()


# -- per-ket operations against the flat per-term loops they replaced -------------------
#
# The references below are the flat {(monomial, ket): c} loops the state
# operations used before a state became one algebra element per ket.

TB1, T1, TB2, T2 = Variable(1, True), Variable(1), Variable(2, True), Variable(2)
REF_VARIABLES = [TB1, T1, TB2, T2]  # canonical order
REF_TABLES = {
    "default": PhaseTable(),
    "override": PhaseTable(overrides=((T1, T2, 2), (TB1, T2, -1), (T1, TB2, 3))),
}


def _ref_left_multiply(ctx, w, terms):
    n, table = ctx.n, ctx.phase_table
    out = {}
    for (mono, ket), c in terms.items():
        for wm, wc in w.terms.items():
            qexp, new = monomial_product(wm, mono, table, n)
            if new is None:
                continue
            key = (new, ket)
            out[key] = out.get(key, 0.0) + wc * c * q_power(n, qexp)
    return out


def _ref_multi_integrate(ctx, terms, order):
    n, table = ctx.n, ctx.phase_table
    out = {}
    for (mono, ket), c in terms.items():
        qexp, rest = integrate_monomial(mono, order, table, n)
        if rest is not None:
            out[rest, ket] = c * q_power(n, qexp)
    return out


def _ref_tensor2(ctx, a, b):
    n, table = ctx.n, ctx.phase_table
    out = {}
    for (ma, ka), ca in a.items():
        for (mb, kb), cb in b.items():
            cross = -quantize_exponent(mb, ka)
            qexp, mono = monomial_product(ma, mb, table, n)
            if mono is None:
                continue
            key = (mono, ka + kb)
            out[key] = out.get(key, 0.0) + ca * cb * q_power(n, cross + qexp)
    return out


def _ref_annihilation(ctx, terms, site):
    out = {}
    for (mono, ket), c in terms.items():
        unbarred, barred = mono.degree_split()
        phase = q_power(ctx.n, unbarred - barred)
        m = ket[site]
        if m == 0:
            continue
        key = (mono, ket[:site] + (m - 1,) + ket[site + 1 :])
        out[key] = out.get(key, 0.0) + c * phase * math.sqrt(m)
    return out


def _random_monomial(rng, n, density=1.0):
    exps = rng.integers(0, n, 4) * (rng.random(4) < density)
    return Monomial(tuple((v, int(e)) for v, e in zip(REF_VARIABLES, exps) if e))


def _random_factor(ctx, rng):
    d = int(rng.integers(2, ctx.n + 1))
    terms = {}
    for m in range(d):
        for _ in range(2):
            # sparse monomials, so three factors rarely vanish by nilpotency
            terms[_random_monomial(rng, ctx.n, 0.4), (m,)] = complex(*rng.standard_normal(2))
    return GradedState(ctx, LevelSpace((d,)), terms)


def _assert_same_terms(got, want, tol=1e-12):
    assert want, "reference result is empty; the comparison would prove nothing"
    assert set(got) == set(want)
    for key, c in want.items():
        assert abs(got[key] - c) <= tol, key


@pytest.mark.parametrize("table", sorted(REF_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_per_ket_operations_match_flat_reference(n, table):
    ctx = AlgebraContext(n, REF_TABLES[table])
    rng = np.random.default_rng(300 * n + sorted(REF_TABLES).index(table))
    for nfactors in (1, 2, 3):
        factors = [_random_factor(ctx, rng) for _ in range(nfactors)]
        state = tensor(factors)
        ref = factors[0].terms
        for factor in factors[1:]:
            ref = _ref_tensor2(ctx, ref, factor.terms)
        _assert_same_terms(state.terms, ref)
        assert GradedState(ctx, state.space, state.terms).isclose(state, tol=0.0)
        assert abs(state.norm() - math.sqrt(sum(abs(c) ** 2 for c in ref.values()))) <= 1e-12
        for (mono, ket), c in list(ref.items())[:20]:
            word = list(reversed(mono.exps))
            ((_, phase),) = ctx.word(word).terms.items()
            assert abs(state.coefficient_of_word(word, ket) - c / phase) <= 1e-12

        for site in range(nfactors):
            lowered = _ref_annihilation(ctx, ref, site)
            if lowered:
                _assert_same_terms(apply_annihilation(state, site).terms, lowered)

        # the differentials' full basis reaches n-1 on every slot of every term
        order = [REF_VARIABLES[i] for i in rng.permutation(4)[: int(rng.integers(1, 3))]]
        weight_terms = {_random_monomial(rng, n): complex(*rng.standard_normal(2))
                        for _ in range(5)}
        for mono in monomial_basis(ctx, order):
            weight_terms[mono] = complex(*rng.standard_normal(2))
        weight = ctx.element(weight_terms)
        product = _ref_left_multiply(ctx, weight, ref)
        _assert_same_terms(state.left_multiply(weight).terms, product)
        _assert_same_terms(
            state.left_multiply(weight).multi_integrate(order).terms,
            _ref_multi_integrate(ctx, product, order),
        )


# -- the array tensor against the pairwise element fold it replaced -----------------


def _fold_tensor(states):
    """tensor as a fold of element products, one per ket pair: the later
    element is twisted across the earlier ket, then multiplied on."""
    parts = dict(states[0].parts)
    for state in states[1:]:
        n, acc, parts = state.ctx.n, parts, {}
        for ka, fa in acc.items():
            shift = -sum(m - 1 for m in ka) % n
            for kb, fb in state.parts.items():
                f = fa * _twist(fb, shift)
                if f.terms:
                    parts[ka + kb] = f
    return parts


def _assert_well_formed(state):
    """The term table's invariants; returns its kets in row order.

    No coefficient is exactly zero, no (monomial, ket) repeats, each ket's
    rows are contiguous, and every digit and exponent is in range.
    """
    table = state._table
    rows = len(table.coef)
    assert table.exps.shape == (rows, len(table.slots))
    assert table.digits.shape == (rows, state.space.nsites)
    assert list(table.slots) == sorted(set(table.slots))
    assert np.all(table.coef != 0)
    assert np.all((table.exps >= 0) & (table.exps < state.ctx.n))
    assert np.all((table.digits >= 0) & (table.digits < state.space.dims))
    kets = [tuple(k) for k in table.digits.tolist()]
    assert len(set(zip(map(tuple, table.exps.tolist()), kets))) == rows
    runs = [k for i, k in enumerate(kets) if i == 0 or k != kets[i - 1]]
    assert len(runs) == len(set(runs)), "a ket's rows are not contiguous"
    return runs


def _assert_matches_fold(state, want):
    """parts, terms, norm and ket order as the fold's; a well-formed table."""
    assert _assert_well_formed(state) == list(want)
    assert list(state.parts) == list(want)
    for ket, f in want.items():
        got = state.parts[ket].terms
        assert got.keys() == f.terms.keys(), ket
        assert all(abs(got[m] - c) <= 1e-12 for m, c in f.terms.items()), ket
        assert all(c != 0 for c in got.values()), ket
    flat = {(m, k): c for k, f in want.items() for m, c in f.terms.items()}
    assert state.terms.keys() == flat.keys()
    assert abs(state.norm() - math.sqrt(sum(abs(c) ** 2 for c in flat.values()))) <= 1e-12


def _fold_cases(ctx, rng):
    """name -> factors: several terms per ket, shared variables, barred ones."""
    n = ctx.n
    scales = [complex(*rng.standard_normal(2)) for _ in range(4)]
    cases = {
        "random": [_random_factor(ctx, rng) for _ in range(3)],
        # theta_1 in three factors: the nilpotent kills of w_n
        "shared": [coherent_state(ctx, T1, n, scales[0]), coherent_state(ctx, T1, 2, scales[1]),
                   coherent_state(ctx, T2, n), coherent_state(ctx, T1, n, scales[2])],
        "barred": [coherent_state(ctx, TB1, n, scales[3]), _random_factor(ctx, rng),
                   coherent_state(ctx, T1, n), squeezed_state_exp(ctx, TB2, n)],
    }
    if n == 3:
        cases["squeezed"] = [squeezed_state_symmetric(ctx, T1), coherent_state(ctx, T2, 3),
                             squeezed_state_symmetric(ctx, T1)]
    return cases


@pytest.mark.parametrize("table", sorted(REF_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tensor_matches_the_element_fold(n, table):
    ctx = AlgebraContext(n, REF_TABLES[table])
    rng = np.random.default_rng(900 * n + sorted(REF_TABLES).index(table))
    for name, factors in _fold_cases(ctx, rng).items():
        state = tensor(factors)
        want = _fold_tensor(factors)
        assert want, f"{name}: the fold is empty; the comparison would prove nothing"
        _assert_matches_fold(state, want)
        # a tensor-built factor: its table is read, not rebuilt from parts
        _assert_matches_fold(tensor([tensor(factors[:2]), *factors[2:]]), want)

        # the join on the table against left_multiply + multi_integrate on parts
        present = sorted({v for mono, _ in state.terms for v, _ in mono})
        order = [present[i] for i in rng.permutation(len(present))[: min(2, len(present))]]
        weight = ctx.element({m: complex(*rng.standard_normal(2))
                              for m in monomial_basis(ctx, REF_VARIABLES)})
        fresh = tensor(factors)
        _assert_same_terms(
            integrate_graded(IntegralSpec(weight, order), fresh).terms,
            state.left_multiply(weight).multi_integrate(order).terms,
        )
        assert fresh._parts is None  # the join read the table only

        amps = rng.standard_normal(state.space.size) + 1j * rng.standard_normal(state.space.size)
        target = PlainState(state.space.dims, amps / np.linalg.norm(amps))
        basis = monomial_basis(ctx, order)
        solution = solve_weight(fresh, order, target, basis)
        assert fresh._parts is None
        rebuilt = solve_weight(GradedState(ctx, state.space, state.terms), order, target, basis)
        assert solution.rank == rebuilt.rank
        assert abs(solution.residual - rebuilt.residual) <= 1e-12
        assert np.max(np.abs(solution.coefficients - rebuilt.coefficients)) <= 1e-12
        image = state.left_multiply(solution.weight).multi_integrate(order).terms
        want_amps = {(MONOMIAL_ONE, k): c for k, c in target.terms().items()}
        residual = math.sqrt(sum(abs(image.get(k, 0.0) - want_amps.get(k, 0.0)) ** 2
                                 for k in image.keys() | want_amps.keys()))
        assert abs(solution.residual - residual) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_tensor_drops_products_that_cancel_to_exact_zero(n):
    one, t1sq, t1t2 = MONOMIAL_ONE, Monomial(((T1, 2),)), Monomial(((T1, 1), (T2, 1)))
    theta1, theta2 = Monomial(((T1, 1),)), Monomial(((T2, 1),))
    # theta_1 * theta_1 theta_2 - theta_1^2 * theta_2 on |1>|0>: both phases are
    # q**0 (theta_1^2 needs n > 2)
    if n > 2:
        ctx = AlgebraContext(n)
        a = GradedState(ctx, LevelSpace((2,)), {(one, (0,)): 0.5, (theta1, (1,)): 1.0, (t1sq, (1,)): 1.0})
        b = GradedState(ctx, LevelSpace((2,)), {(t1t2, (0,)): 1.0, (theta2, (0,)): -1.0})
        state = tensor([a, b])
        _assert_matches_fold(state, _fold_tensor([a, b]))
        assert (Monomial(((T1, 2), (T2, 1))), (1, 0)) not in state.terms
        assert (t1t2, (1, 0)) in state.terms

    # with eps(theta_1, theta_2) = 0, theta_1 theta_2 + theta_2 (-theta_1) = 0 exactly,
    # and at n = 2 the squares vanish too, so the ket |1>|0> goes
    ctx = AlgebraContext(n, PhaseTable(overrides=((T1, T2, 0),)))
    a = GradedState(ctx, LevelSpace((2,)), {(one, (0,)): 1.0, (theta1, (1,)): 1.0, (theta2, (1,)): 1.0})
    b = GradedState(ctx, LevelSpace((2,)), {(theta2, (0,)): 1.0, (theta1, (0,)): -1.0, (one, (1,)): 1.0})
    want = _fold_tensor([a, b])
    state = tensor([a, b])
    _assert_matches_fold(state, want)
    assert (t1t2, (1, 0)) not in state.terms
    assert ((1, 0) in state.parts) == (n > 2)


def test_tensor_of_a_zero_factor_is_zero():
    ctx = AlgebraContext(3)
    zero = GradedState(ctx, LevelSpace((3,)), {})
    for factors in ([zero, coherent_state(ctx, T1, 3)], [coherent_state(ctx, T1, 3), zero]):
        state = tensor(factors)
        assert state.space.dims == (3, 3)
        assert state.parts == {} and state.norm() == 0.0


# -- one store: every constructor builds a well-formed term table --------------------


@pytest.mark.parametrize("table", sorted(REF_TABLES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_state_holds_a_well_formed_table(n, table):
    ctx = AlgebraContext(n, REF_TABLES[table])
    rng = np.random.default_rng(1100 * n + sorted(REF_TABLES).index(table))
    state = tensor([_random_factor(ctx, rng) for _ in range(2)])
    space, kets = state.space, list(np.ndindex(*state.space.dims))
    # interleaved kets, an exact zero and a ket whose only term is zero
    flat = {(_random_monomial(rng, n), kets[int(rng.integers(len(kets) - 1))]):
            complex(*rng.standard_normal(2)) for _ in range(12)}
    flat[MONOMIAL_ONE, kets[0]] = 0.0
    flat[MONOMIAL_ONE, kets[-1]] = 0j
    other = GradedState(ctx, space, flat)
    assert kets[-1] not in other.parts
    element = ctx.element({_random_monomial(rng, n): complex(*rng.standard_normal(2))
                           for _ in range(3)})
    pairs = GradedState.from_pairs(ctx, space, [(element, kets[1]), (ctx.one(), kets[0]),
                                                (-1.0 * element, kets[1]), (element, kets[2])])
    assert kets[1] not in pairs.parts  # its two elements cancel
    order = [REF_VARIABLES[i] for i in rng.permutation(4)[:2]]
    weight = ctx.element({m: complex(*rng.standard_normal(2))
                          for m in monomial_basis(ctx, REF_VARIABLES)})
    built = {
        "init": other, "from_pairs": pairs, "tensor": state,
        "add": state + other, "sub": state - other, "sub_self": state - state,
        "scale": state * complex(*rng.standard_normal(2)), "scale_zero": 0 * state,
        "left_multiply": state.left_multiply(weight),
        "multi_integrate": state.left_multiply(weight).multi_integrate(order),
        "annihilate_0": apply_annihilation(state, 0), "annihilate_1": apply_annihilation(other, 1),
        "integrate_graded": integrate_graded(IntegralSpec(weight, order), state),
    }
    for name, got in built.items():
        assert got._table is not None, name
        assert _assert_well_formed(got) == list(got.parts), name
    assert built["sub_self"].parts == {} and built["scale_zero"].parts == {}
    _assert_same_terms(built["integrate_graded"].terms, built["multi_integrate"].terms)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_integral_pairs_that_cancel_to_exact_zero_leave_no_row(n):
    # with eps(theta_1, theta_2) = 0 every phase is q**0 = 1, so the pairs
    # (1, theta_1^(n-1) theta_2) and (theta_2, -theta_1^(n-1)) leave +theta_2 and
    # -theta_2 on |0> and cancel exactly
    ctx = AlgebraContext(n, PhaseTable(overrides=((T1, T2, 0),)))
    top = Monomial(((T1, n - 1),))
    state = GradedState(ctx, LevelSpace((2,)), {
        (Monomial(((T1, n - 1), (T2, 1))), (0,)): 1.0, (top, (0,)): -1.0, (top, (1,)): 1.0,
    })
    weight = ctx.one() + ctx.gen(T2)
    got = integrate_graded(IntegralSpec(weight, (T1,)), state)
    _assert_well_formed(got)
    theta2 = Monomial(((T2, 1),))
    assert got.terms == state.left_multiply(weight).multi_integrate((T1,)).terms
    assert (theta2, (0,)) not in got.terms
    assert got.terms[MONOMIAL_ONE, (0,)] == -1 and got.terms[theta2, (1,)] == 1

    # no state term reaches theta_1^(n-1) against the weight 1: the result is empty
    low = GradedState(ctx, LevelSpace((2,)), {(MONOMIAL_ONE, (0,)): 1.0, (theta2, (1,)): 2.0})
    empty = integrate_graded(IntegralSpec(ctx.one(), (T1,)), low)
    _assert_well_formed(empty)
    assert empty.parts == {} and empty.grassmann_part_norm() == 0.0
    assert np.all(empty.plain_projection().amps == 0) and empty.space == low.space


@pytest.mark.parametrize("seed", range(8))
def test_summed_matches_a_dict_sum(seed):
    rng = np.random.default_rng(seed)
    n, width, nsites = int(rng.integers(2, 5)), int(rng.integers(0, 4)), int(rng.integers(1, 4))
    rows = int(rng.integers(1, 40)) if seed else 0  # seed 0: the empty input
    nkets = int(rng.integers(1, 5))
    ket_digits = np.array(list(np.ndindex(*[3] * nsites)))[rng.permutation(3**nsites)[:nkets]]
    position = rng.permutation(nkets)  # the caller's ket order
    which = rng.integers(0, nkets, rows)
    exps = rng.integers(0, n, (rows, width)) * (rng.random((rows, width)) < 0.3)
    coef = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    coef[rng.random(rows) < 0.1] = 0.0
    if rows:  # a row's negation: their key sums to exactly 0 unless another row shares it
        exps, coef = np.concatenate([exps, exps[:1]]), np.append(coef, -coef[0])
        which = np.append(which, which[0])
    digits, ket = ket_digits[which], position[which]

    want: dict = {}
    for i in sorted(range(len(coef)), key=lambda i: ket[i]):
        key = (tuple(digits[i].tolist()), tuple(exps[i].tolist()))
        want[key] = want.get(key, 0.0) + coef[i]
    want = [(k, c) for k, c in want.items() if c != 0]

    got_exps, got_coef, got_digits = _summed(n, exps, coef, digits, ket)
    assert got_exps.shape == (len(want), width) and got_digits.shape == (len(want), nsites)
    got = [((tuple(d), tuple(e)), c)
           for e, c, d in zip(got_exps.tolist(), got_coef.tolist(), got_digits.tolist())]
    assert got == want  # same rows, same order, the same sums bit for bit
