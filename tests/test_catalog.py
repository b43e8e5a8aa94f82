"""Catalog construction and comparison-policy tests."""

import math

import numpy as np
import pytest

from qgrass import catalog, entangle, qstate
from qgrass.catalog import (
    MATCH_EXACT,
    MATCH_GLOBAL_PHASE,
    MATCH_MISMATCH,
    MATCH_SIGNATURE,
    catalog_construct,
    catalog_ids,
    compare_states,
    match_at_least,
)
from qgrass.entangle import (
    bipartition_spectrum,
    cut_spectra,
    monomial_basis,
    reduced_density,
    schmidt_rank,
    solve_weight,
)
from qgrass.qstate import PlainState
from qgrass.suites import CATALOG_RUNS

AMP2 = 1.0 / math.sqrt(2.0)


def plain(dims, terms):
    return PlainState.from_terms(dims, terms)


# -- comparison policy ---------------------------------------------------------


@pytest.fixture
def no_reports(monkeypatch):
    """Comparisons must classify without entanglement reports or cut spectra.

    Tests still reach the real cut_spectra through this module's own import.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("compare_states built an entanglement report or cut spectra")

    monkeypatch.setattr(catalog, "entanglement_report", refuse)
    monkeypatch.setattr(entangle, "cut_spectra", refuse)
    assert not hasattr(catalog, "cut_spectra")


def test_compare_exact(no_reports):
    a = plain((2, 2), {(0, 0): AMP2, (1, 1): AMP2})
    assert compare_states(a, a) == (MATCH_EXACT, None)


def test_compare_global_phase(no_reports):
    a = plain((2, 2), {(0, 0): AMP2, (1, 1): AMP2})
    b = plain((2, 2), {(0, 0): 1j * AMP2, (1, 1): 1j * AMP2})
    match, (c, gates) = compare_states(b, a)
    assert match == MATCH_GLOBAL_PHASE
    assert c == pytest.approx(1j) and all(np.all(u == 1.0) for u in gates)


def test_compare_signature(no_reports):
    a = plain((2, 2), {(0, 0): AMP2, (1, 1): AMP2})
    b = plain((2, 2), {(0, 0): AMP2, (1, 1): -AMP2})
    assert compare_states(b, a)[0] == MATCH_SIGNATURE


def test_compare_mismatch(no_reports):
    a = plain((2, 2), {(0, 0): AMP2, (1, 1): AMP2})
    b = plain((2, 2), {(0, 1): AMP2, (1, 0): AMP2})
    assert compare_states(b, a)[0] == MATCH_MISMATCH


def test_signature_requires_equal_spectra_not_just_magnitudes(no_reports):
    # equal per-term magnitudes but different Schmidt spectra must not pass
    a = plain((2, 2), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
    b = plain((2, 2), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): -0.5})
    assert compare_states(a, b)[0] == MATCH_MISMATCH
    # |0> (x) the pair above: cut (0,) agrees on both sides, only the later
    # cuts separate them
    a3 = plain((2, 2, 2), {(0, *k): 0.5 for k in ((0, 0), (0, 1), (1, 0), (1, 1))})
    b3 = plain((2, 2, 2), {(0, 0, 0): 0.5, (0, 0, 1): 0.5, (0, 1, 0): 0.5, (0, 1, 1): -0.5})
    assert bipartition_spectrum(a3, [0]) == pytest.approx(bipartition_spectrum(b3, [0]))
    assert compare_states(a3, b3)[0] == MATCH_MISMATCH


def test_one_site_states_with_equal_magnitudes_are_signature(no_reports):
    a = PlainState((2,), np.array([AMP2, AMP2]))
    b = PlainState((2,), np.array([AMP2, -AMP2]))
    assert compare_states(a, b)[0] == MATCH_SIGNATURE


def test_equal_spectra_without_diagonal_gates_are_a_mismatch(no_reports):
    # a and its complex conjugate agree in magnitudes and in every Schmidt
    # spectrum, but r00 r11 / (r01 r10) = e^{2i pi/3} for the ratios r = a / b,
    # which no c (u_0 (x) u_1) can produce
    a = plain((2, 2), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5 * np.exp(1j * np.pi / 3)})
    b = PlainState(a.dims, np.conj(a.amps))
    sa, sb = cut_spectra(a), cut_spectra(b)
    assert sa.keys() == sb.keys() and all(np.allclose(sa[c], sb[c]) for c in sa)
    assert np.allclose(np.abs(a.amps), np.abs(b.amps))
    assert compare_states(a, b) == (MATCH_MISMATCH, None)


def _rebuilt(local_phases, amps):
    c, gates = local_phases
    g = np.array(c)
    for u in gates:
        g = np.multiply.outer(g, u)
    return g.reshape(-1) * amps


@pytest.mark.parametrize("seed", range(40))
def test_local_phase_gates_are_found_and_rebuild_the_state(seed, no_reports):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 4, size=rng.integers(1, 5)))
    size = math.prod(dims)
    amps = np.zeros(size, dtype=complex)
    support = rng.choice(size, size=rng.integers(1, size + 1), replace=False)
    amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    b = PlainState(dims, amps).normalized()
    phases = (np.exp(2j * np.pi * rng.random()),
              tuple(np.exp(2j * np.pi * rng.random(d)) for d in dims))
    a = PlainState(dims, _rebuilt(phases, b.amps))

    match, local_phases = compare_states(a, b)
    assert match_at_least(match, MATCH_SIGNATURE)
    if match == MATCH_EXACT:
        assert local_phases is None and a.isclose(b)
    else:
        assert np.max(np.abs(a.amps - _rebuilt(local_phases, b.amps))) <= 1e-9
        assert all(np.allclose(np.abs(u), 1.0) for u in local_phases[1])

    # a phase off on one ket is still signature only if gates absorb it,
    # and then the Schmidt spectra, which such gates keep, must agree
    amps = a.amps.copy()
    amps[rng.choice(support)] *= np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1))
    off = PlainState(dims, amps)
    match, local_phases = compare_states(off, b)
    assert match != MATCH_EXACT
    if match == MATCH_SIGNATURE:
        assert np.max(np.abs(off.amps - _rebuilt(local_phases, b.amps))) <= 1e-9
        so, sb = cut_spectra(off), cut_spectra(b)
        assert all(np.allclose(so[cut], sb[cut]) for cut in sb)


def test_compare_states_rejects_different_dims():
    amps = np.arange(1.0, 7.0)
    with pytest.raises(ValueError, match="dims"):
        compare_states(PlainState((2, 3), amps), PlainState((3, 2), amps))


def test_match_ordering():
    assert match_at_least(MATCH_EXACT, MATCH_SIGNATURE)
    assert not match_at_least(MATCH_MISMATCH, MATCH_SIGNATURE)


# -- individual entries -----------------------------------------------------------


def test_catalog_lists_all_entries():
    ids = catalog_ids()
    assert len(ids) == 16
    assert "ghz_n" in ids and "qudit_mes_n" in ids


def test_unknown_entry_raises():
    with pytest.raises(KeyError):
        catalog_construct("nosuch")


def test_bell_psi_signature_and_purity():
    for sign in (1, -1):
        result = catalog_construct("bell_psi_pm", sign=sign)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        assert abs(result.report.purity) < 1e-9
        assert result.report.max_entangled


def test_bell_phi_signature():
    for sign in (1, -1):
        result = catalog_construct("bell_phi_pm", sign=sign)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        assert result.report.max_entangled


def test_w_entry_purity_values():
    for n in range(2, 7):
        result = catalog_construct("w_n", n=n)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        assert abs(result.report.purity - ((n - 2) / n) ** 2) < 1e-9


def test_w2_magnitudes():
    result = catalog_construct("w_n", n=2)
    for ket in ((0, 1), (1, 0)):
        assert abs(abs(result.computed.coefficient(ket)) - AMP2) < 1e-9


def test_ghz_entries():
    for n in range(2, 7):
        result = catalog_construct("ghz_n", n=n)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        assert abs(result.report.purity) < 1e-9
        assert result.report.max_entangled
    assert catalog_construct("ghz_n", n=3).match == MATCH_EXACT


def test_cluster_rdms_are_maximally_mixed():
    for sign in (1, -1):
        result = catalog_construct("cluster4_pm", sign=sign)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        for site in range(4):
            rho = reduced_density(result.computed, [site])
            assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-9)


def test_qutrit_bell_entries_exact():
    for entry in ("qutrit_psi_pm", "qutrit_phi_pm"):
        for sign in (1, -1):
            result = catalog_construct(entry, sign=sign)
            assert result.match == MATCH_EXACT
            assert result.report.max_entangled


def test_qutrit_subspace_entries_exact():
    for entry in ("qutrit_sub_00_22", "qutrit_sub_00_11"):
        for sign in (1, -1):
            assert catalog_construct(entry, sign=sign).match == MATCH_EXACT


def test_qutrit_psi22_exact_for_all_roots():
    for k in (0, 1, 2):
        result = catalog_construct("qutrit_psi22", omega_power=k)
        assert result.match == MATCH_EXACT
        assert result.report.max_entangled


def test_biseparable_structure():
    for sign in (1, -1):
        result = catalog_construct("qutrit_biseparable", sign=sign)
        assert match_at_least(result.match, MATCH_SIGNATURE)
        assert schmidt_rank(bipartition_spectrum(result.computed, [0]), tol=1e-6) == 1
        for cut in ([1], [2]):
            spec = bipartition_spectrum(result.computed, cut)
            assert abs(spec[0] - spec[1]) < 1e-9
        # cataloged prefactor leaves the state unnormalized
        assert "PREFACTOR_NORM" in result.flags
        assert abs(result.norm_ratio - math.sqrt(2.0 / 3.0)) < 1e-9


def test_squeezed_pair_entry():
    result = catalog_construct("qutrit_squeezed_00_22")
    assert match_at_least(result.match, MATCH_SIGNATURE)
    assert abs(abs(result.computed.coefficient((0, 0))) - AMP2) < 1e-9
    assert abs(abs(result.computed.coefficient((2, 2))) - AMP2) < 1e-9
    assert result.grassmann_residual < 1e-12


def test_squeezed_exp_entry():
    result = catalog_construct("qutrit_squeezed_exp")
    assert match_at_least(result.match, MATCH_SIGNATURE)
    assert result.solver.feasible


def test_mixed_entry_mismatch_is_reported_not_hidden():
    result = catalog_construct("qutrit_mixed_02_20")
    assert result.match == MATCH_MISMATCH
    assert "MIXED_RECIPE" in result.flags
    assert "GRASSMANN_RESIDUE" in result.flags
    assert result.grassmann_residual > 1e-3
    assert not result.solver.feasible


def test_qudit_mes_exact_and_solver_diagonal():
    for n in range(2, 6):
        result = catalog_construct("qudit_mes_n", n=n)
        assert result.match == MATCH_EXACT
        assert result.report.max_entangled
        assert result.solver.feasible
        t1 = result.solver.weight.ctx.theta(1)
        t2 = result.solver.weight.ctx.theta(2)
        for mono, coeff in result.solver.weight.terms.items():
            assert mono.exponent(t1) == mono.exponent(t2) or abs(coeff) < 1e-9


def test_qudit_mes_n2_reduces_to_bell():
    result = catalog_construct("qudit_mes_n", n=2)
    target = result.target
    assert abs(target.coefficient((0, 0)) - AMP2) < 1e-12
    assert abs(target.coefficient((1, 1)) - AMP2) < 1e-12


@pytest.mark.parametrize("n", [16, 19, 22])
def test_qudit_mes_keeps_small_coefficients_at_large_grade(n):
    # the |n-1 n-1> amplitude carries 1/(n-1)!, below 1e-12 from n = 16 on
    result = catalog_construct("qudit_mes_n", n=n, solver_check=False)
    assert result.match == MATCH_EXACT
    assert abs(result.norm_ratio - 1.0) < 1e-9
    assert result.flags == ["QUDIT_WEIGHT_INDEXING"]


def test_qudit_mes_solver_reaches_full_rank_at_grade_16():
    result = catalog_construct("qudit_mes_n", n=16)
    assert result.match == MATCH_EXACT
    assert result.solver.rank == 16 * 16
    assert result.solver.feasible


@pytest.mark.parametrize("n", [17, 18, 19, 20, 60, 100])
def test_qudit_mes_solver_feasible_at_full_rank(n):
    # the columns' norms span 15 orders of magnitude at n = 17 and 156 at
    # n = 100, so only a per-block cutoff keeps every one of them
    recipe = catalog.build_recipe("qudit_mes_n", n=n)
    solution = solve_weight(
        recipe.state, recipe.differentials, recipe.target.normalized(), recipe.solver_basis
    )
    assert solution.rank == len(recipe.solver_basis)
    assert solution.feasible


def test_signature_construct_decomposes_each_state_once(monkeypatch):
    seen = []

    def counting(state):
        seen.append(state.normalized().amps)
        return cut_spectra(state)

    monkeypatch.setattr(entangle, "cut_spectra", counting)
    result = catalog_construct("w_n", n=4, solver_check=False)
    assert result.match == MATCH_SIGNATURE
    computed, target = result.computed.normalized().amps, result.target.normalized().amps
    assert not np.allclose(computed, target)
    # the report decomposes the computed state; the comparison decomposes nothing
    assert len(seen) == 1 and np.allclose(seen[0], computed)
    assert np.max(np.abs(computed - _rebuilt(result.local_phases, target))) <= 1e-9


def test_ghz_construct_never_boxes_its_tensor_state(monkeypatch):
    boxed, tabulated = [], []
    real_boxed, real_tabulate = qstate._boxed, qstate._tabulate
    monkeypatch.setattr(qstate, "_boxed", lambda ctx, t: boxed.append(len(t.coef)) or real_boxed(ctx, t))
    monkeypatch.setattr(qstate, "_tabulate", lambda *a: tabulated.append(a) or real_tabulate(*a))
    result = catalog_construct("ghz_n", n=10, solver_check=False)
    assert result.match == "signature" and boxed == []

    recipe = catalog.build_recipe("ghz_n", n=10)
    spec = entangle.IntegralSpec(recipe.weight, recipe.differentials)
    entangle.integrate_graded(spec, recipe.state)
    solution = solve_weight(recipe.state, recipe.differentials, recipe.target.normalized(),
                            recipe.solver_basis)
    assert solution.feasible
    assert recipe.state._parts is None and boxed == []
    parts = recipe.state.parts  # built once, on first read
    assert recipe.state.parts is parts and len(recipe.state.terms) == 1024
    assert boxed == [1024]

    # a state built from elements (plus - minus) holds its table from the
    # start, and the join tabulates nothing
    bell = catalog.build_recipe("bell_psi_pm", sign=1)
    assert isinstance(bell.state._table, qstate._Table)
    tabulated.clear()
    for _ in range(2):
        entangle.integrate_graded(entangle.IntegralSpec(bell.weight, bell.differentials), bell.state)
    assert tabulated == []


def test_squeezed_qudit_entries():
    r3 = catalog_construct("qudit_squeezed_mes_n", n=3)
    assert match_at_least(r3.match, MATCH_SIGNATURE)
    assert abs(abs(r3.computed.normalized().coefficient((0, 0))) - AMP2) < 1e-9
    assert abs(abs(r3.computed.normalized().coefficient((2, 2))) - AMP2) < 1e-9
    assert "SQUEEZED_QUDIT_WEIGHT" in r3.flags
    assert r3.notes  # negative powers reported

    r5 = catalog_construct("qudit_squeezed_mes_n", n=5)
    assert r5.match == MATCH_MISMATCH
    assert not r5.solver.feasible
    # the stray off-diagonal kets produced by the one-variable weight
    assert abs(r5.computed.coefficient((0, 4))) > 1e-3
    assert abs(r5.computed.coefficient((4, 0))) > 1e-3


def test_every_mes_target_entry_is_maximally_entangled():
    runs = [
        ("bell_psi_pm", {"sign": 1}), ("bell_phi_pm", {"sign": -1}),
        ("ghz_n", {"n": 5}), ("cluster4_pm", {"sign": 1}),
        ("qutrit_psi_pm", {"sign": -1}), ("qutrit_phi_pm", {"sign": 1}),
        ("qutrit_psi22", {}), ("qudit_mes_n", {"n": 4}),
    ]
    for entry_id, params in runs:
        result = catalog_construct(entry_id, **params)
        assert result.report.max_entangled, entry_id


# -- verification path builds each input once -----------------------------------


@pytest.fixture
def basis_calls(monkeypatch):
    """Count the calls catalog makes to monomial_basis."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return monomial_basis(*args, **kwargs)

    monkeypatch.setattr(catalog, "monomial_basis", counting)
    return calls


def test_construct_without_solver_builds_no_basis(basis_calls):
    result = catalog_construct("ghz_n", n=4, solver_check=False)
    assert result.solver is None
    assert basis_calls == []


def test_solver_basis_is_built_once_on_first_read(basis_calls):
    recipe = catalog.build_recipe("qutrit_biseparable", sign=-1)
    assert basis_calls == []
    first, second = recipe.solver_basis, recipe.solver_basis
    assert first is second
    assert first == tuple(monomial_basis(recipe.ctx, recipe.differentials))
    assert len(basis_calls) == 1


def test_catalog_runs_list_each_flag_once():
    for entry_id, params, _floor in CATALOG_RUNS:
        flags = catalog_construct(entry_id, solver_check=False, **params).flags
        assert len(set(flags)) == len(flags), (entry_id, params, flags)
