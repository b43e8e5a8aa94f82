"""Catalog construction and comparison-policy tests."""

import json
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
    MonomialBasis,
    bipartition_spectrum,
    cut_spectra,
    reduced_density,
    schmidt_rank,
    solve_weight,
)
from qgrass.qstate import PlainState
from qgrass.serialize import construction_to_dict
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


@pytest.mark.parametrize("n", [17, 18, 19, 20, 60, 100, 102, 110, 130])
def test_qudit_mes_solver_feasible_at_full_rank(n):
    # the columns' norms span 15 orders of magnitude at n = 17 and 156 at
    # n = 100, so only a per-block cutoff keeps every one of them; from
    # n = 102 on their squares underflow unless the columns are rescaled
    recipe = catalog.build_recipe("qudit_mes_n", n=n)
    solution = solve_weight(
        recipe.state, recipe.differentials, recipe.target.normalized(), recipe.solver_basis
    )
    assert solution.rank == len(recipe.solver_basis)
    assert solution.feasible


def test_signature_construct_decomposes_each_state_once(monkeypatch):
    seen = []
    real = entangle._spectra

    def recorded(unit, cuts):
        seen.append((unit.amps, list(cuts)))
        return real(unit, cuts)

    svd, matrices = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        matrices.append(math.prod(np.shape(a)[:-2]))  # a stack counts each
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(entangle, "_spectra", recorded)
    monkeypatch.setattr(np.linalg, "svd", counted)
    result = catalog_construct("w_n", n=4, solver_check=False)
    assert result.match == MATCH_SIGNATURE
    computed, target = result.computed.normalized().amps, result.target.normalized().amps
    assert not np.allclose(computed, target)
    # the report decomposes the computed state's single-site cuts; the
    # comparison decomposes nothing
    assert sum(matrices) == 4 and len(seen) == 1
    assert seen[0][1] == [(0,), (1,), (2,), (3,)] and np.allclose(seen[0][0], computed)
    # the first read lists all 14 cuts and decomposes the 7 unordered ones
    # once, the second reads nothing
    cuts = result.report.bipartition_schmidt
    assert sum(matrices) == 4 + 7 and len(seen) == 2 and len(seen[1][1]) == 14
    assert result.report.bipartition_schmidt is cuts and sum(matrices) == 11
    monkeypatch.undo()
    assert cuts == cut_spectra(result.computed.normalized())  # the state the report was given
    assert np.max(np.abs(computed - _rebuilt(result.local_phases, target))) <= 1e-9


def test_construct_without_the_solver_never_builds_the_product(monkeypatch):
    # a builder may fold factors of its own (bell_psi_pm's plus - minus);
    # once the recipe is built, a call of catalog.tensor, which is how
    # recipe.state builds the product, fails the construct, and the recipe
    # holds no product afterwards
    real_build, real_tensor = catalog.build_recipe, catalog.tensor
    recipes = []

    def refuse(states):
        raise AssertionError("the full product was built")

    def build(entry_id, **params):
        monkeypatch.setattr(catalog, "tensor", real_tensor)
        recipes.append(real_build(entry_id, **params))
        monkeypatch.setattr(catalog, "tensor", refuse)
        return recipes[-1]

    monkeypatch.setattr(catalog, "build_recipe", build)
    for entry_id, params, floor in CATALOG_RUNS:
        result = catalog_construct(entry_id, solver_check=False, **params)
        assert match_at_least(result.match, floor), (entry_id, params)
        assert "state" not in vars(recipes[-1]), (entry_id, params)


def test_construct_with_the_solver_folds_the_product_once(monkeypatch):
    # recipe.state folds the factors, and the integral and the solve read it:
    # the integral's own fold is of that one state, which folds nothing
    real_build, real_fold = catalog.build_recipe, qstate._fold
    folds, recipes = [], []

    def fold(states, prune=None):
        folds.append(len(states))
        return real_fold(states, prune)

    def build(entry_id, **params):
        recipes.append(real_build(entry_id, **params))
        folds.clear()  # a builder may fold factors of its own
        return recipes[-1]

    monkeypatch.setattr(qstate, "_fold", fold)
    monkeypatch.setattr(entangle, "_fold", fold)
    monkeypatch.setattr(catalog, "build_recipe", build)
    for entry_id, params, _ in CATALOG_RUNS:
        catalog_construct(entry_id, **params)
        assert folds == [len(recipes[-1].factors), 1], (entry_id, params)


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
    """Count the bases catalog builds (MonomialBasis)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return MonomialBasis(*args, **kwargs)

    monkeypatch.setattr(catalog, "MonomialBasis", counting)
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
    assert list(first) == list(MonomialBasis(recipe.ctx, recipe.differentials))
    assert len(basis_calls) == 1


def test_catalog_runs_list_each_flag_once():
    for entry_id, params, _floor in CATALOG_RUNS:
        flags = catalog_construct(entry_id, solver_check=False, **params).flags
        assert len(set(flags)) == len(flags), (entry_id, params, flags)


# -- recipe parameters -------------------------------------------------------------


@pytest.mark.parametrize("entry_id, params, takes", [
    ("qutrit_psi22", {"n": 3}, "takes omega_power, not n"),
    ("w_n", {"omega_power": 2}, "takes n, not omega_power"),
    ("qudit_mes_n", {"sign": 1}, "takes n, not sign"),
    ("qutrit_squeezed_exp", {"n": 2}, "takes no parameters, not n"),
])
def test_unknown_parameter_names_the_entry_and_what_it_takes(entry_id, params, takes):
    with pytest.raises(TypeError) as info:
        catalog.build_recipe(entry_id, **params)
    assert str(info.value) == f"{entry_id} {takes}"


@pytest.mark.parametrize("entry_id, params", [
    ("qutrit_psi22", {"omega_power": 1.5}),
    ("qutrit_psi22", {"omega_power": 2.0}),
    ("qutrit_psi22", {"omega_power": True}),
    ("bell_psi_pm", {"sign": True}),
    ("cluster4_pm", {"sign": True}),
    ("qutrit_psi_pm", {"sign": False}),
])
def test_bool_and_non_integer_parameters_are_rejected(entry_id, params):
    # omega_power = 1.5 used to build omega = -1, no cube root of unity, and
    # report it exact; True passed as 1 and was recorded as true
    with pytest.raises(ValueError, match=next(iter(params))):
        catalog.build_recipe(entry_id, **params)


def test_integer_omega_power_and_sign_are_kept():
    assert catalog.build_recipe("qutrit_psi22", omega_power=np.int64(2)).params == {"omega_power": 2}
    assert catalog.build_recipe("bell_phi_pm", sign=-1).params == {"sign": -1}


@pytest.mark.parametrize("entry_id, params", [
    ("bell_psi_pm", {"sign": 1.0}),
    ("bell_phi_pm", {"sign": -1.0}),
    ("cluster4_pm", {"sign": np.float64(1.0)}),
    ("w_n", {"n": 4.0}),
    ("ghz_n", {"n": True}),
    ("qudit_mes_n", {"n": 3.0}),
    ("qudit_squeezed_mes_n", {"n": np.float64(4.0)}),
])
def test_float_parameters_are_rejected(entry_id, params):
    # sign=1.0 used to be accepted and recorded as 1.0
    with pytest.raises(ValueError, match=f"^{next(iter(params))} must be"):
        catalog.build_recipe(entry_id, **params)


@pytest.mark.parametrize("entry_id, params", [
    ("bell_psi_pm", {"sign": np.int64(-1)}),
    ("qutrit_psi22", {"omega_power": np.int32(2)}),
    ("w_n", {"n": np.int64(4)}),
    ("ghz_n", {"n": np.int16(3)}),
    ("qudit_mes_n", {"n": np.uint8(3)}),
    ("qudit_squeezed_mes_n", {"n": np.int64(4)}),
])
def test_numpy_integer_parameters_are_recorded_as_python_ints(entry_id, params):
    # a numpy integer used to be recorded as it was, so the JSON dump of the
    # construction raised TypeError
    recipe = catalog.build_recipe(entry_id, **params)
    assert recipe.params == {k: int(v) for k, v in params.items()}
    assert all(type(v) is int for v in recipe.params.values())
    result = catalog.catalog_construct(entry_id, solver_check=False, **params)
    assert json.loads(json.dumps(construction_to_dict(result)))["params"] == recipe.params


# -- the signature decision against its dense reference ----------------------------
#
# _dense_compare_states and _dense_local_phases are compare_states and
# _local_phases as they were before the decision read only the union of the
# two supports: both vectors normalized in full, the echelon on an
# object-dtype matrix, and the gates multiplied out over every amplitude.


def _dense_compare_states(computed, target, tol=1e-9):
    if computed.dims != target.dims:
        raise ValueError(f"cannot compare dims {computed.dims} with {target.dims}")
    if computed.norm() == 0.0:
        return MATCH_MISMATCH, None
    a = computed.normalized().amps
    b = target.normalized().amps
    if np.max(np.abs(a - b)) <= tol:
        return MATCH_EXACT, None
    k = int(np.argmax(np.abs(b)))
    if abs(a[k]) > tol:
        phase = a[k] / b[k]
        if abs(abs(phase) - 1.0) <= tol and np.max(np.abs(a - phase * b)) <= tol:
            ones = tuple(np.ones(d, dtype=complex) for d in target.dims)
            return MATCH_GLOBAL_PHASE, (complex(phase), ones)
    if np.max(np.abs(np.abs(a) - np.abs(b))) <= tol:
        gates = _dense_local_phases(a, b, target.dims, tol)
        if gates is not None:
            return MATCH_SIGNATURE, gates
    return MATCH_MISMATCH, None


def _dense_local_phases(a, b, dims, tol):
    support = np.flatnonzero(np.abs(b) > tol)
    support = support[np.argsort(-np.abs(b[support]), kind="stable")]
    m = len(support)
    starts = np.cumsum((1,) + dims[:-1])
    ncols = 1 + sum(dims)
    rows = np.zeros((m, ncols), dtype=object)
    rows[:, 0] = 1
    kets = np.array(np.unravel_index(support, dims))
    rows[np.arange(m)[:, None], starts + kets.T] = 1
    angle = np.angle(a[support] / b[support])

    top, pivots = 0, []
    for col in range(ncols):
        if top == m:
            break
        while True:
            live = top + np.flatnonzero(rows[top:, col])
            if live.size == 0:
                break
            p = live[np.argmin(np.abs(rows[live, col]))]
            rows[[top, p]], angle[[top, p]] = rows[[p, top]], angle[[p, top]]
            rest = top + 1 + np.flatnonzero(rows[top + 1:, col])
            if rest.size == 0:
                break
            q = rows[rest, col] // rows[top, col]
            rows[rest] -= q[:, None] * rows[top]
            step = angle[rest] - q.astype(float) * angle[top]
            angle[rest] = (step + np.pi) % (2 * np.pi) - np.pi
        if rows[top, col] != 0:
            pivots.append(col)
            top += 1

    theta = np.zeros(ncols)
    for i in reversed(range(top)):
        col = pivots[i]
        h = rows[i, col + 1:].astype(float)
        theta[col] = (angle[i] - h @ theta[col + 1:]) / rows[i, col]
    c = complex(np.exp(1j * theta[0]))
    gates = tuple(np.exp(1j * theta[s:s + d]) for s, d in zip(starts, dims))
    if np.max(np.abs(a - _rebuilt((c, gates), b))) <= tol:
        return c, gates
    return None


def _same_gates(found, reference):
    if found is None or reference is None:
        return found is reference
    (c, gates), (rc, rgates) = found, reference
    return abs(c - rc) <= 1e-12 and len(gates) == len(rgates) and all(
        np.max(np.abs(u - ru)) <= 1e-12 for u, ru in zip(gates, rgates)
    )


def _agrees_with_the_dense_reference(computed, target, tol=1e-9):
    """compare_states and _local_phases against their dense references: one
    class, gates within 1e-12, and found gates rebuild the computed state
    within tol.  Returns the class."""
    match, phases = compare_states(computed, target, tol)
    reference_match, reference_phases = _dense_compare_states(computed, target, tol)
    assert match == reference_match and _same_gates(phases, reference_phases)
    a, b = computed.normalized().amps, target.normalized().amps
    if phases is not None:
        assert np.max(np.abs(a - _rebuilt(phases, b))) <= tol
    # the gate search itself, also where the magnitudes differ
    flat = np.flatnonzero((computed.amps != 0) | (target.amps != 0))
    gates = catalog._local_phases(a[flat], b[flat], flat, target.dims, tol)
    assert _same_gates(gates, _dense_local_phases(a, b, target.dims, tol))
    if gates is not None:
        assert np.max(np.abs(a - _rebuilt(gates, b))) <= tol
    return match


_CONSTRUCT_LARGE_OPS = [
    ("ghz_n", {"n": 12}), ("ghz_n", {"n": 10}), ("w_n", {"n": 11}), ("qudit_mes_n", {"n": 11}),
    ("cluster4_pm", {"sign": 1}), ("cluster4_pm", {"sign": -1}),
    ("qutrit_biseparable", {"sign": 1}), ("qutrit_biseparable", {"sign": -1}),
]


@pytest.mark.parametrize("entry_id, params", [(e, p) for e, p, _ in CATALOG_RUNS] + _CONSTRUCT_LARGE_OPS)
def test_catalog_comparisons_agree_with_the_dense_reference(entry_id, params):
    result = catalog_construct(entry_id, solver_check=False, **params)
    assert _agrees_with_the_dense_reference(result.computed, result.target) == result.match


def _random_pair(seed):
    """A seeded (computed, target) pair near the signature decision: one of
    five kinds, by seed % 5 -- gates only; gates and a perturbation of size
    1e-12 .. 1e-3; target entries nonzero but below tol; a computed entry off
    the target's support; one ket's phase off.  The gates are all 1 when
    seed % 10 == 0."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(1, 5)))
    size = math.prod(dims)
    amps = np.zeros(size, dtype=complex)
    support = rng.choice(size, size=rng.integers(1, size + 1), replace=False)
    amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    if kind == 2 and len(support) < size:
        faint = rng.choice(np.setdiff1d(np.arange(size), support), size=1)
        amps[faint] = 10.0 ** rng.uniform(-14, -10) * np.exp(2j * np.pi * rng.random())
    target = PlainState(dims, amps)
    phases = (np.exp(2j * np.pi * rng.random()),
              tuple(np.exp(2j * np.pi * rng.random(d)) for d in dims))
    if seed % 10 == 0:
        phases = (1.0, tuple(np.ones(d) for d in dims))
    computed = _rebuilt(phases, target.amps / target.norm())
    eps = 10.0 ** rng.uniform(-12, -3)
    if kind == 1:
        touched = rng.choice(support, size=rng.integers(1, len(support) + 1), replace=False)
        computed[touched] += eps * np.exp(2j * np.pi * rng.random(len(touched)))
    if kind == 3 and len(support) < size:
        stray = rng.choice(np.setdiff1d(np.arange(size), support))
        computed[stray] = eps * np.exp(2j * np.pi * rng.random())
    if kind == 4:
        computed[rng.choice(support)] *= np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1))
    return PlainState(dims, computed), target


def test_random_pairs_cover_every_class():
    matches = [compare_states(*_random_pair(seed))[0] for seed in range(320)]
    assert {MATCH_EXACT, MATCH_GLOBAL_PHASE, MATCH_SIGNATURE, MATCH_MISMATCH} <= set(matches)


@pytest.mark.parametrize("seed", range(320))
def test_random_comparisons_agree_with_the_dense_reference(seed):
    _agrees_with_the_dense_reference(*_random_pair(seed))


def test_zero_states_and_unequal_dims_as_the_dense_reference():
    computed, target = _random_pair(1)
    zero = PlainState(target.dims, np.zeros(len(target.amps)))
    for compare in (compare_states, _dense_compare_states):
        assert compare(zero, target) == (MATCH_MISMATCH, None)
        with pytest.raises(ValueError):
            compare(computed, zero)
        with pytest.raises(ValueError, match="dims"):
            compare(PlainState((2, 3), np.ones(6)), PlainState((3, 2), np.ones(6)))
