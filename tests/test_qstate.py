"""Graded-state layer: quantization, builders, tensor products, closures."""

import cmath
import math

import numpy as np
import pytest

from qgrass.algebra import (
    AlgebraContext,
    Monomial,
    PhaseTable,
    Variable,
    integrate_monomial,
    monomial_product,
    q_power,
)
from qgrass.entangle import monomial_basis
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
