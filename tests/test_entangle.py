"""Pipeline, measures and solver tests.

Expected reduced densities and Schmidt spectra are frozen from direct
dense linear algebra (partial traces and SVDs written out by hand here),
independent of the library's implementations.
"""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from qgrass import entangle
from qgrass.algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    MONOMIAL_ONE,
    PhaseTable,
    Variable,
)
from qgrass.catalog import build_recipe, ghz_target, w_target
from qgrass.entangle import (
    IntegralSpec,
    apply_weight_and_integrate,
    bipartition_spectrum,
    entanglement_report,
    integrate_graded,
    is_maximally_entangled,
    purity_linear,
    purity_viola,
    reduced_density,
    schmidt_rank,
    solve_weight,
)
from qgrass.qstate import (
    GradedState,
    GrassmannResidueError,
    LevelSpace,
    PlainState,
    coherent_state,
    squeezed_state_exp,
    squeezed_state_symmetric,
    tensor,
)
from qgrass.serialize import solution_to_dict
from qgrass.suites import CATALOG_RUNS

AMP2 = 1.0 / math.sqrt(2.0)
AMP3 = 1.0 / math.sqrt(3.0)


def plain(dims, terms):
    return PlainState.from_terms(dims, terms)


def ghz(n):
    return plain((2,) * n, {(0,) * n: AMP2, (1,) * n: AMP2})


def w_state(n):
    return plain(
        (2,) * n,
        {tuple(1 if i == k else 0 for i in range(n)): 1 / math.sqrt(n) for k in range(n)},
    )


# -- pipeline -----------------------------------------------------------------


def test_w2_recipe_amplitude_magnitudes():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    pair = tensor([coherent_state(ctx, t, 2)] * 2)
    spec = IntegralSpec(ctx.scalar(-AMP2), (t,))
    out = apply_weight_and_integrate(spec, pair)
    assert abs(abs(out.coefficient((0, 1))) - AMP2) < 1e-12
    assert abs(abs(out.coefficient((1, 0))) - AMP2) < 1e-12
    assert abs(out.coefficient((0, 0))) < 1e-12
    assert abs(out.coefficient((1, 1))) < 1e-12


def test_empty_integral_is_identity_on_plain_input():
    ctx = AlgebraContext(2)
    from qgrass.qstate import GradedState, LevelSpace

    state = GradedState(ctx, LevelSpace((2,)), {(Monomial(()), (1,)): 0.5})
    out = apply_weight_and_integrate(IntegralSpec(ctx.one(), ()), state)
    assert abs(out.coefficient((1,)) - 0.5) < 1e-12


def test_weight_supplies_missing_top_power():
    # at n = 2 the weight theta carries the full Berezin top power
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    from qgrass.qstate import GradedState, LevelSpace

    vacuum = GradedState(ctx, LevelSpace((2,)), {(Monomial(()), (0,)): 1.0})
    out = apply_weight_and_integrate(IntegralSpec(ctx.gen(t), (t,)), vacuum)
    assert abs(out.coefficient((0,)) - 1.0) < 1e-12


def test_residual_grassmann_content_raises():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = tensor(
        [squeezed_state_symmetric(ctx, t), coherent_state(ctx, t, 3)]
    )
    spec = IntegralSpec(ctx.q + ctx.gen(t), (t,))
    with pytest.raises(GrassmannResidueError):
        apply_weight_and_integrate(spec, state)


# -- reduced densities and purity ------------------------------------------------


def test_reduced_density_ghz3():
    rho = reduced_density(ghz(3), [0])
    assert np.allclose(rho.entries, np.diag([0.5, 0.5]))


def test_reduced_density_product_state():
    rho = reduced_density(plain((2, 2), {(0, 0): 1.0}), [0])
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_reduced_density_w3():
    # direct partial trace: site 0 of W3 is diag(2/3, 1/3)
    rho = reduced_density(w_state(3), [0])
    assert np.allclose(rho.entries, np.diag([2.0 / 3.0, 1.0 / 3.0]))


def test_reduced_density_rejects_zero_state():
    with pytest.raises(ValueError):
        reduced_density(plain((2, 2), {}), [0])


def test_purity_ghz_and_w_families():
    for n in range(2, 7):
        assert abs(purity_viola(ghz(n))) < 1e-9
        assert abs(purity_viola(w_state(n)) - ((n - 2) / n) ** 2) < 1e-9


def test_purity_product_state_is_one():
    assert abs(purity_viola(plain((2, 2), {(0, 0): 1.0})) - 1.0) < 1e-12


def test_purity_viola_rejects_qudits():
    with pytest.raises(ValueError):
        purity_viola(plain((3, 3), {(0, 0): 1.0}))


def test_purity_linear_matches_viola_on_qubits():
    state = w_state(3)
    assert abs(purity_linear(state) - purity_viola(state)) < 1e-12


def test_purity_linear_range_on_qutrits():
    mes = plain((3, 3), {(i, i): AMP3 for i in range(3)})
    product = plain((3, 3), {(1, 2): 1.0})
    assert abs(purity_linear(mes)) < 1e-12
    assert abs(purity_linear(product) - 1.0) < 1e-12


# -- bipartition spectra -----------------------------------------------------------


def test_bell_schmidt_spectrum():
    bell = plain((2, 2), {(0, 0): AMP2, (1, 1): AMP2})
    spec = bipartition_spectrum(bell, [0])
    assert np.allclose(spec, [AMP2, AMP2])


def test_biseparable_spectra():
    state = plain((3, 3, 3), {(0, 0, 0): AMP2, (0, 1, 1): AMP2})
    assert schmidt_rank(bipartition_spectrum(state, [0]), tol=1e-6) == 1
    spec2 = bipartition_spectrum(state, [2])
    assert np.allclose(spec2[:2], [AMP2, AMP2])


def test_spectrum_invariant_under_local_diagonal_phases():
    rng = np.random.default_rng(11)
    state = plain(
        (2, 2, 2),
        {tuple(k): complex(*rng.standard_normal(2)) for k in np.ndindex(2, 2, 2)},
    )
    phases = [np.exp(2j * np.pi * rng.random(2)) for _ in range(3)]
    twisted = state.amps.reshape(2, 2, 2).copy()
    for axis, ph in enumerate(phases):
        shape = [1, 1, 1]
        shape[axis] = 2
        twisted = twisted * ph.reshape(shape)
    twisted_state = PlainState((2, 2, 2), twisted.reshape(-1))
    for cut in ([0], [1], [2], [0, 1], [0, 2]):
        a = bipartition_spectrum(state, cut)
        b = bipartition_spectrum(twisted_state, cut)
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("cut", [[5], [-1], [0, 1, 2, 5]], ids=str)
def test_bipartition_spectrum_rejects_out_of_range_sites(cut):
    state = plain((2, 2, 2), {(0, 0, 0): AMP2, (1, 1, 1): AMP2})
    with pytest.raises(ValueError, match="out of range"):
        bipartition_spectrum(state, cut)


def _random_dense(dims, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    return PlainState(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _tiny_and_zero_amplitudes():
    rng = np.random.default_rng(5)
    amps = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * (rng.random(64) < 0.3)
    amps[[3, 40]] = [1e-300, -2e-300j]
    return PlainState((2,) * 6, amps)


def _sparse(dims, seed, nonzero):
    rng = np.random.default_rng(seed)
    size = math.prod(dims)
    amps = np.zeros(size, dtype=complex)
    where = rng.choice(size, nonzero, replace=False)
    amps[where] = rng.standard_normal(nonzero) + 1j * rng.standard_normal(nonzero)
    return PlainState(dims, amps)


# (2, 2, 4, 4) and (4, 2, 2, 4) stack a single-site cut with multi-site cuts
# of the same shape; the sparse states index long axes by key rank
CUT_SPECTRA_STATES = {
    "dense-2^8": lambda: _random_dense((2,) * 8, 1),
    "dense-3x3x2x2x2x2": lambda: _random_dense((3, 3, 2, 2, 2, 2), 2),
    "dense-2x3x4": lambda: _random_dense((2, 3, 4), 3),
    "dense-2x3": lambda: _random_dense((2, 3), 41),
    "dense-2x2x4": lambda: _random_dense((2, 2, 4), 43),
    "dense-4x2x2": lambda: _random_dense((4, 2, 2), 44),
    "dense-2x2x4x4": lambda: _random_dense((2, 2, 4, 4), 45),
    "dense-4x2x2x4": lambda: _random_dense((4, 2, 2, 4), 46),
    "sparse-2x5": lambda: _sparse((2, 5), 48, 2),
    "sparse-2x2x4x4": lambda: _sparse((2, 2, 4, 4), 49, 3),
    "sparse-4x2x2x4": lambda: _sparse((4, 2, 2, 4), 50, 5),
    "sparse-2^9": lambda: _sparse((2,) * 9, 51, 7),
    "ghz7": lambda: ghz_target(7),
    "w6": lambda: w_target(6),
    "w2-qutrits": lambda: plain((3, 3), {(0, 1): AMP2, (1, 0): AMP2}),
    "product-K1": lambda: plain((2, 3, 4), {(1, 2, 0): 0.5j}),
    "tiny-and-zero": _tiny_and_zero_amplitudes,
}


@pytest.mark.parametrize("name", sorted(CUT_SPECTRA_STATES))
def test_cut_spectra_matches_bipartition_spectrum(name):
    state = CUT_SPECTRA_STATES[name]()
    nsites = state.nsites
    spectra = entangle.cut_spectra(state)
    cuts = [c for r in range(1, nsites) for c in itertools.combinations(range(nsites), r)]
    assert list(spectra) == cuts
    unit = state.normalized()
    for cut in cuts:
        want = bipartition_spectrum(state, cut)
        assert len(spectra[cut]) == len(want)
        assert all(type(x) is float for x in spectra[cut])
        assert np.max(np.abs(np.asarray(spectra[cut]) - want)) <= 1e-12
        rest = tuple(k for k in range(nsites) if k not in cut)
        assert spectra[cut] is spectra[rest]
        # one matrix per bipartition, whichever side is listed alone
        assert entangle._spectra(unit, [cut]) == entangle._spectra(unit, [rest])
    # the report decomposes the single-site cuts alone, to the same bits
    report = entanglement_report(state)
    for i, d in enumerate(state.dims):
        spec = [s * s for s in spectra[(i,)]]
        assert report.rdm_spectra[i] == spec + [0.0] * (d - len(spec))
    assert report.bipartition_schmidt == spectra


def test_cut_spectra_single_site_and_zero_state():
    assert entangle.cut_spectra(plain((3,), {(1,): 1.0})) == {}
    with pytest.raises(ValueError, match="zero state"):
        entangle.cut_spectra(PlainState((2, 3), np.zeros(6)))


def _count_svd_matrices(monkeypatch):
    """A list that grows by each matrix np.linalg.svd decomposes (a stack counts each)."""
    original = np.linalg.svd
    matrices = []

    def counted(a, *args, **kwargs):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return matrices


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 3), (3, 3), (2, 3, 2), (2, 2, 4), (4, 2, 2), (3, 2, 2, 2), (2,) * 6],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_entanglement_report_decomposes_single_sites_then_every_cut_on_first_read(
    monkeypatch, dims
):
    rng = np.random.default_rng(sum(dims) * 31 + len(dims))
    size = math.prod(dims)
    state = PlainState(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    nsites = len(dims)
    matrices = _count_svd_matrices(monkeypatch)
    report = entanglement_report(state)
    # a cut and its complement share one matrix: two sites decompose one
    assert sum(matrices) == (nsites if nsites > 2 else nsites - 1)
    matrices.clear()
    cuts = report.bipartition_schmidt
    assert sum(matrices) == 2 ** (nsites - 1) - 1
    matrices.clear()
    assert report.bipartition_schmidt is cuts and matrices == []
    # in any order, each complement listed before its cut and every cut twice,
    # _spectra still decomposes one matrix per bipartition
    listed = list(cuts)[::-1] + list(cuts)
    spectra = entangle._spectra(state.normalized(), listed)
    assert sum(matrices) == 2 ** (nsites - 1) - 1
    for cut, got in zip(listed, spectra):
        rest = tuple(k for k in range(nsites) if k not in cut)
        assert got is spectra[listed.index(rest)] and got == cuts[cut]
    monkeypatch.undo()

    assert cuts == entangle.cut_spectra(state)
    assert list(cuts) == [
        cut
        for r in range(1, nsites)
        for cut in itertools.combinations(range(nsites), r)
    ]
    for cut, got in cuts.items():
        fresh = bipartition_spectrum(state, cut)
        assert len(got) == len(fresh)
        assert np.max(np.abs(np.asarray(got) - fresh)) <= 1e-12


@pytest.mark.parametrize(
    "dims, mes",
    [((2,), False), ((3,), False), ((3, 2), False), ((2, 2, 2), False), ((2, 3, 4), False),
     ((3, 3), True)],
    ids=["2", "3", "3x2", "2x2x2", "2x3x4", "3x3-mes"],
)
def test_entanglement_report_reads_site_spectra_from_cut_spectra(monkeypatch, dims, mes):
    rng = np.random.default_rng(sum(dims) * 17 + len(dims))
    size = math.prod(dims)
    if mes:  # sum_k e^{i phi_k} |kk>: every site maximally mixed
        amps = np.diag(np.exp(2j * np.pi * rng.random(dims[0]))).ravel()
    else:
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state = PlainState(dims, amps)

    def refused(*args, **kwargs):
        raise AssertionError("the report builds no dense density matrix")

    for owner, name in [(entangle, "reduced_density"), (entangle, "DensityMatrix"),
                        (np.linalg, "eigvalsh")]:
        monkeypatch.setattr(owner, name, refused)
    report = entanglement_report(state)
    monkeypatch.undo()

    dense = [reduced_density(state, [i]).spectrum() for i in range(len(dims))]
    assert [len(s) for s in report.rdm_spectra] == list(dims)
    for got, want in zip(report.rdm_spectra, dense):
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12
    qubits = all(d == 2 for d in dims)
    assert abs(report.purity - (purity_viola(state) if qubits else purity_linear(state))) <= 1e-12
    assert report.max_entangled == mes == all(
        np.all(np.abs(s - 1.0 / d) <= 1e-9) for s, d in zip(dense, dims)
    )
    with pytest.raises(ValueError, match="zero state"):
        entanglement_report(PlainState(dims, np.zeros(size)))


def test_is_maximally_entangled_families():
    mes3 = plain((3, 3), {(i, i): AMP3 for i in range(3)})
    ok, report = is_maximally_entangled(mes3)
    assert ok and report.max_entangled
    assert not is_maximally_entangled(w_state(3))[0]
    assert not is_maximally_entangled(plain((2, 2), {(0, 0): 1.0}))[0]


# -- solver --------------------------------------------------------------------------


def test_solver_diagonal_support_for_qutrit_mes():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    state = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    target = plain((3, 3), {(i, i): AMP3 for i in range(3)})
    solution = solve_weight(state, (t1, t2), target, entangle.MonomialBasis(ctx, [t1, t2]))
    assert solution.feasible
    assert solution.residual < 1e-9
    for mono, coeff in solution.weight.terms.items():
        assert mono.exponent(t1) == mono.exponent(t2) or abs(coeff) < 1e-9


def test_solver_single_variable_cannot_reach_02_plus_20():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = tensor([coherent_state(ctx, t, 3)] * 2)
    target = plain((3, 3), {(0, 2): AMP2, (2, 0): AMP2})
    solution = solve_weight(state, (t,), target, entangle.MonomialBasis(ctx, [t]))
    assert not solution.feasible
    assert solution.residual > 0.1


def test_solver_round_trip_recovers_random_weight_image():
    rng = np.random.default_rng(5)
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    state = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    basis = entangle.MonomialBasis(ctx, [t1, t2])
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    weight = AlgebraElement(ctx, dict(zip(basis, coeffs)))
    image = apply_weight_and_integrate(IntegralSpec(weight, (t1, t2)), state)
    solution = solve_weight(state, (t1, t2), image, basis)
    assert solution.feasible
    assert solution.residual < 1e-9
    recovered = apply_weight_and_integrate(
        IntegralSpec(solution.weight, (t1, t2)), state
    )
    assert np.allclose(recovered.amps, image.amps, atol=1e-9)


def test_solver_single_variable_cannot_reach_ghz3():
    # three qubits, one variable: the |111> amplitude needs Grassmann degree
    # beyond nilpotency, so no weight exists
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    state = tensor([coherent_state(ctx, t, 2)] * 3)
    solution = solve_weight(
        state, (t,), ghz(3), entangle.MonomialBasis(ctx, [t])
    )
    assert not solution.feasible
    assert solution.residual > 0.1


def test_solver_rejects_empty_basis():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    state = tensor([coherent_state(ctx, t, 2)] * 2)
    with pytest.raises(ValueError):
        solve_weight(state, (t,), ghz(2), [])


def test_solver_rejects_repeated_differentials():
    ctx = AlgebraContext(2)
    t = ctx.theta(1)
    state = tensor([coherent_state(ctx, t, 2)] * 2)
    with pytest.raises(ValueError, match="distinct"):
        solve_weight(state, (t, t), ghz(2), entangle.MonomialBasis(ctx, [t]))


@pytest.mark.parametrize("where", ["scale", "target"])
def test_solver_raises_when_its_residual_overflows(where):
    # a finite but huge scale overflows the tensor product (1e200 * 1e200); a
    # huge amplitude on a ket no basis column reaches overflows the
    # residual's norm to inf.  Each is one ValueError, with no numpy warning.
    ctx = AlgebraContext(2)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    scale, amp = (1e200, 1.0) if where == "scale" else (1.0, complex(1e308, 1e308))
    target = plain((2, 2), {(0, 0): 1.0, (1, 1): amp})
    if where == "scale":
        basis = entangle.MonomialBasis(ctx, [t1, t2])
    else:
        basis = [Monomial(((t1, 1), (t2, 1)))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflowed"):
            state = tensor([coherent_state(ctx, t1, 2, scale), coherent_state(ctx, t2, 2, scale)])
            solve_weight(state, (t1, t2), target, basis)
    assert [str(w.message) for w in caught] == []


def test_solver_feasibility_forbids_grassmann_residue():
    # the symmetric squeezed factor leaves conjugate-variable residue under
    # a single differential, so even its own image is infeasible unless the
    # residual rows vanish
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = tensor([squeezed_state_symmetric(ctx, t), coherent_state(ctx, t, 3)])
    target = plain((3, 3), {(0, 0): 1.0})
    solution = solve_weight(state, (t,), target, [Monomial(((t, 2),))])
    # theta^2 weight kills every residue channel and lands on |00>
    assert solution.feasible


# -- join kernel against the left_multiply / multi_integrate composition ------

T1, T2, TB1 = Variable(1), Variable(2), Variable(1, barred=True)
JOIN_VARIABLES = [TB1, T1, T2]  # canonical order
JOIN_CASES = {
    # name: (phase table, differentials)
    "default": (PhaseTable(), (T2, TB1, T1)),
    "override": (PhaseTable(overrides=((T1, T2, 2), (TB1, T2, -1))), (T1, T2, TB1)),
    "residue": (PhaseTable(), (T1,)),
    "empty": (PhaseTable(), ()),
}
# join-only cases: every other integration order of the three variables, and
# states from factors that share a variable (as w_n's), under both tables
MORE_JOIN_CASES = {}
for _name in ("default", "override"):
    _table, _diffs = JOIN_CASES[_name]
    for _order in itertools.permutations(JOIN_VARIABLES):
        if _order != _diffs:
            MORE_JOIN_CASES[f"{_name}-" + "-".join(v.name for v in _order)] = (_table, _order)
    MORE_JOIN_CASES[f"shared-{_name}"] = (_table, (T1,))
    MORE_JOIN_CASES[f"shared-{_name}-T2-T1"] = (_table, (T2, T1))
JOIN_CASE_NAMES = sorted(JOIN_CASES) + sorted(MORE_JOIN_CASES)  # a case's seed is its index


def _random_monomial(rng, n):
    exps = rng.integers(0, n, len(JOIN_VARIABLES))
    return Monomial(tuple((v, int(e)) for v, e in zip(JOIN_VARIABLES, exps) if e))


def _random_graded(ctx, rng, dims=(2, 3), nterms=40):
    terms = {}
    for _ in range(nterms):
        ket = tuple(int(rng.integers(d)) for d in dims)
        terms[(_random_monomial(rng, ctx.n), ket)] = complex(*rng.standard_normal(2))
    return GradedState(ctx, LevelSpace(dims), terms)


def _random_weight(ctx, rng, basis):
    return AlgebraElement(ctx, {m: complex(*rng.standard_normal(2)) for m in basis})


def _assert_terms_close(got, want, tol=1e-12):
    assert want, "reference result is empty; the comparison would prove nothing"
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= tol, key


@pytest.mark.parametrize("case", JOIN_CASE_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integrate_graded_matches_left_multiply_then_integrate(n, case):
    table, diffs = {**JOIN_CASES, **MORE_JOIN_CASES}[case]
    ctx = AlgebraContext(n, phase_table=table)
    rng = np.random.default_rng(100 * n + JOIN_CASE_NAMES.index(case))
    if case.startswith("shared"):
        scales = [complex(*rng.standard_normal(2)) for _ in range(3)]
        shared = tensor([coherent_state(ctx, v, 2, c) for v, c in zip((T1, T1, T2), scales)])
        state = shared + _random_graded(ctx, rng, dims=(2, 2, 2), nterms=20)
    else:
        state = _random_graded(ctx, rng)
    # every basis monomial, so non-differential variables ride along
    weight = _random_weight(ctx, rng, entangle.MonomialBasis(ctx, JOIN_VARIABLES))
    want = state.left_multiply(weight).multi_integrate(diffs).terms
    got = integrate_graded(IntegralSpec(weight, diffs), state).terms
    _assert_terms_close(got, want)
    if case == "residue":
        assert any(mono != MONOMIAL_ONE for mono, _ in want)
    if 0 < len(diffs) < len(JOIN_VARIABLES):
        # several weight terms share one differential key
        keys = Counter(tuple(m.exponent(d) for d in diffs) for m in weight.terms)
        assert max(keys.values()) > 1


# -- the pruned fold against tensor-then-integrate ------------------------------

T3 = Variable(3)  # held by no factor; a differential in the "unheld" cases
PRUNE_CASES = [(name, variant) for name in ("default", "override")
               for variant in ("random", "shared", "unheld")]


def _random_factor(ctx, rng, variables):
    """A one-site factor over variables (canonical order): 1|0> plus up to five
    random terms, so the product never vanishes and some kets carry several."""
    d = int(rng.integers(2, 4))
    terms = {(MONOMIAL_ONE, (0,)): complex(*rng.standard_normal(2))}
    for _ in range(int(rng.integers(1, 6))):
        exps = rng.integers(0, ctx.n, len(variables))
        mono = Monomial(tuple((v, int(e)) for v, e in zip(variables, exps) if e))
        terms[(mono, (int(rng.integers(d)),))] = complex(*rng.standard_normal(2))
    return GradedState(ctx, LevelSpace((d,)), terms)


def _completing_weight(ctx, rng, state, diffs):
    """Weight terms that complete four random rows of state on diffs (n-1 on a
    differential the state lacks, 0 off the differentials), and three random
    terms."""
    n, table = ctx.n, state._table
    variables = sorted(set(JOIN_VARIABLES).union(diffs))
    col = {v: i for i, v in enumerate(table.slots)}
    rows = [[n - 1 - (int(table.exps[r, col[v]]) if v in col else 0) if v in diffs else 0
             for v in variables] for r in rng.integers(len(table.coef), size=4).tolist()]
    rows += rng.integers(0, n, (3, len(variables))).tolist()
    return AlgebraElement(ctx, {
        Monomial(tuple((v, int(e)) for v, e in zip(variables, row) if e)): complex(*rng.standard_normal(2))
        for row in rows
    })


def _assert_same_table(got, want):
    assert got.space == want.space and got._table.slots == want._table.slots
    for a, b in zip(got._table[1:], want._table[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", PRUNE_CASES, ids="-".join)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pruned_integral_is_bitwise_tensor_then_integrate(n, case, monkeypatch):
    name, variant = case
    table, diffs = JOIN_CASES[name]
    ctx = AlgebraContext(n, phase_table=table)
    rng = np.random.default_rng(1000 * n + PRUNE_CASES.index(case))
    factors = []
    for _ in range(int(rng.integers(3, 6))):
        held = [v for v in JOIN_VARIABLES if rng.random() < 0.5] or [T2]
        if variant == "shared":  # every factor holds theta_1
            held = sorted(set(held) | {T1})
        factors.append(_random_factor(ctx, rng, held))
    if variant == "unheld":
        diffs += (T3,)
    full = tensor(factors)
    spec = IntegralSpec(_completing_weight(ctx, rng, full, diffs), diffs)
    want = integrate_graded(spec, full)
    assert len(want._table.coef), "reference result is empty; the comparison would prove nothing"
    seen, join = [], entangle._join
    monkeypatch.setattr(entangle, "_join", lambda *a: seen.append(len(a[-1]._table.coef)) or join(*a))
    _assert_same_table(entangle._integrate(spec, factors), want)
    assert seen[0] <= len(full._table.coef)


@pytest.mark.parametrize(
    "entry_id,params",
    [(e, p) for e, p, _ in CATALOG_RUNS]
    + [("ghz_n", {"n": 12}), ("w_n", {"n": 11}), ("qudit_mes_n", {"n": 11})],
    ids=str,
)
def test_pruned_recipe_integral_is_bitwise_tensor_then_integrate(entry_id, params):
    recipe = build_recipe(entry_id, **params)
    spec = IntegralSpec(recipe.weight, recipe.differentials)
    _assert_same_table(entangle._integrate(spec, recipe.factors),
                       integrate_graded(spec, tensor(recipe.factors)))


def test_pruned_fold_hands_the_join_only_completable_rows(monkeypatch):
    # ghz_n 10: each factor holds one differential and the weight completes
    # only the all-zero and all-one rows, so 2 rows are kept after each step
    # before the last, and the join reads 4 rows where the product has 1024
    seen, join = [], entangle._join
    monkeypatch.setattr(entangle, "_join", lambda *a: seen.append(len(a[-1]._table.coef)) or join(*a))
    recipe = build_recipe("ghz_n", n=10)
    entangle._integrate(IntegralSpec(recipe.weight, recipe.differentials), recipe.factors)
    assert seen == [4] and len(recipe.state._table.coef) == 1024


def test_pruned_fold_overflow_raises_as_tensor_does():
    # 1e200**2 is past the float range on the all-one row, which the scalar
    # weight term completes: one ValueError with the same text either way,
    # and numpy prints nothing
    ctx = AlgebraContext(2)
    vs = [ctx.theta(k) for k in (1, 2, 3)]
    factors = [coherent_state(ctx, v, 2, 1e200) for v in vs]
    spec = IntegralSpec(ctx.one() + ctx.word(vs), tuple(vs))
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in (lambda: tensor(factors), lambda: entangle._integrate(spec, factors)):
            with pytest.raises(ValueError, match="overflowed") as raised:
                run()
            messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert [str(w.message) for w in caught] == []


def test_pruned_fold_integrates_a_product_that_overflows_only_in_dropped_rows():
    # theta_1 theta_2 theta_3 completes only the all-zero row; the rows that
    # carry 1e200**2 are dropped after the second factor, so the pruned
    # integral is finite where the full product overflows
    ctx = AlgebraContext(2)
    vs = [ctx.theta(k) for k in (1, 2, 3)]
    factors = [coherent_state(ctx, v, 2, 1e200) for v in vs]
    with pytest.raises(ValueError, match="overflowed"):
        tensor(factors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = entangle._integrate(IntegralSpec(ctx.word(vs), tuple(vs)), factors).to_plain()
    assert [str(w.message) for w in caught] == []
    assert np.flatnonzero(got.amps).tolist() == [0] and abs(got.amps[0]) == 1.0


@pytest.mark.parametrize("entry", ["integrate_graded", "apply_weight_and_integrate", "pruned",
                                   "one_factor"])
def test_weight_integral_overflow_raises_one_value_error(entry):
    # 1e100**3 is finite, so the product holds the all-one row; the weight's
    # scalar 1e200 completes it and takes its integral past the float range.
    # One ValueError, and numpy prints nothing
    ctx = AlgebraContext(2)
    vs = [ctx.theta(k) for k in (1, 2, 3)]
    factors = [coherent_state(ctx, v, 2, 1e100) for v in vs]
    spec = IntegralSpec(ctx.scalar(1e200) + ctx.word(vs), tuple(vs))
    t = vs[0]  # the one-factor case: a 1e200 weight on a 1e200 factor
    runs = {
        "integrate_graded": lambda: integrate_graded(spec, tensor(factors)),
        "apply_weight_and_integrate": lambda: apply_weight_and_integrate(spec, tensor(factors)),
        "pruned": lambda: entangle._integrate(spec, factors),
        "one_factor": lambda: apply_weight_and_integrate(
            IntegralSpec(ctx.scalar(1e200), (t,)), coherent_state(ctx, t, 2, 1e200)),
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflowed"):
            runs[entry]()
    assert [str(w.message) for w in caught] == []


def _dense_problem(state, diffs, target, basis):
    """Dense matrix and right-hand side, one left_multiply / multi_integrate per monomial."""
    ctx = state.ctx
    columns = [
        state.left_multiply(AlgebraElement(ctx, {m: 1.0})).multi_integrate(diffs).terms
        for m in basis
    ]
    rows = {}
    for col in columns:
        for key in col:
            rows.setdefault(key, len(rows))
    for ket in target.terms():
        rows.setdefault((MONOMIAL_ONE, ket), len(rows))
    mat = np.zeros((len(rows), len(basis)), dtype=complex)
    for j, col in enumerate(columns):
        for key, c in col.items():
            mat[rows[key], j] = c
    rhs = np.zeros(len(rows), dtype=complex)
    for (mono, ket), i in rows.items():
        if mono == MONOMIAL_ONE:
            rhs[i] = target.coefficient(ket)
    return mat, rhs


def _reference_solve(state, diffs, target, basis):
    """Per-column assembly solved densely; the residual through left_multiply."""
    ctx = state.ctx
    mat, rhs = _dense_problem(state, diffs, target, basis)
    x, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    weight = ctx.zero()
    for m, c in zip(basis, x):
        weight = weight + AlgebraElement(ctx, {m: c})
    image = state.left_multiply(weight).multi_integrate(diffs).terms
    keys = set(image) | {(MONOMIAL_ONE, ket) for ket in target.terms()}
    residual = math.sqrt(sum(
        abs(image.get(key, 0.0) - (target.coefficient(key[1]) if key[0] == MONOMIAL_ONE else 0.0)) ** 2
        for key in keys
    ))
    return int(rank), residual, mat.shape


@pytest.mark.parametrize("case", ["default", "override", "residue"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_weight_matches_per_column_assembly(n, case):
    table, diffs = JOIN_CASES[case]
    ctx = AlgebraContext(n, phase_table=table)
    rng = np.random.default_rng(200 * n + len(diffs))
    state = _random_graded(ctx, rng)
    basis = list(entangle.MonomialBasis(ctx, JOIN_VARIABLES))
    basis = basis + basis[1:4]  # repeated monomials get their own columns
    image = integrate_graded(
        IntegralSpec(_random_weight(ctx, rng, basis), diffs), state
    ).plain_projection()
    noise = PlainState((2, 3), rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for target in (image, noise):
        solution = solve_weight(state, diffs, target, basis)
        rank, residual, _ = _reference_solve(state, diffs, target, basis)
        assert solution.rank == rank
        assert solution.feasible == (residual < 1e-9)
        assert abs(solution.residual - residual) <= 1e-12
    if case != "residue":
        assert solve_weight(state, diffs, image, basis).feasible


def test_solver_singular_values_match_rank():
    ctx = AlgebraContext(3)
    rng = np.random.default_rng(7)
    state = _random_graded(ctx, rng)
    basis = entangle.MonomialBasis(ctx, JOIN_VARIABLES)
    target = PlainState((2, 3), rng.standard_normal(6))
    solution = solve_weight(state, (T1, T2), target, basis)
    _, _, shape = _reference_solve(state, (T1, T2), target, basis)
    sv = solution.singular_values
    assert len(sv) == min(shape)
    rcond = np.finfo(float).eps * max(shape)
    assert int(np.sum(sv > rcond * sv[0])) == solution.rank
    assert "singular_values" not in repr(solution)
    assert "singular_values" not in solution_to_dict(solution)


def _state_with_block_structure(ctx, rng, nterms=40):
    """Random terms over TB1, T1, T2 with T1 exponent >= 1 and no ket (1, 2).

    Under the single differential T1, a weight with T1**(n-1) meets no state
    term (empty column), the target row of |12> meets no column, and a
    weight's T2 and TB1 powers ride along into the rows, so weights that
    differ off T1 share rows (multi-column blocks).
    """
    kets = [k for k in itertools.product(range(2), range(3)) if k != (1, 2)]
    terms = {}
    for _ in range(nterms):
        exps = rng.integers(ctx.n), rng.integers(1, ctx.n), rng.integers(ctx.n)  # TB1, T1, T2
        mono = Monomial(tuple((v, int(e)) for v, e in zip(JOIN_VARIABLES, exps) if e))
        ket = kets[int(rng.integers(len(kets)))]
        terms[(mono, ket)] = complex(*rng.standard_normal(2))
    return GradedState(ctx, LevelSpace((2, 3)), terms)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [3, 4])
def test_block_solve_matches_dense_lstsq(n, seed):
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(1000 * n + seed)
    state = _state_with_block_structure(ctx, rng)
    basis = list(entangle.MonomialBasis(ctx, JOIN_VARIABLES))
    basis = basis + basis[1:4] + basis[-2:]  # repeats make rank-deficient blocks
    image = integrate_graded(
        IntegralSpec(_random_weight(ctx, rng, basis), (T1,)), state
    ).terms
    noise = PlainState((2, 3), rng.standard_normal(6) + 1j * rng.standard_normal(6))
    reached = PlainState.from_terms(
        (2, 3), {k: c for (m, k), c in image.items() if m == MONOMIAL_ONE}
    )
    mat, rhs = _dense_problem(state, (T1,), noise, basis)
    # the structure this test is about is really there
    nonzero = mat != 0
    assert not nonzero.any(axis=0).all()  # an empty column
    assert (~nonzero.any(axis=1) & (rhs != 0)).any()  # a target row no column reaches
    shared = nonzero[nonzero.sum(axis=1) > 1]
    assert any(len({basis[j] for j in np.flatnonzero(row)}) > 1 for row in shared)

    for target in (noise, reached):
        mat, rhs = _dense_problem(state, (T1,), target, basis)
        x, _, rank, sv = np.linalg.lstsq(mat, rhs, rcond=None)
        assert rank < nonzero.any(axis=0).sum()  # a rank-deficient block
        residual = float(np.linalg.norm(mat @ x - rhs))
        solution = solve_weight(state, (T1,), target, basis)
        assert solution.rank == rank
        assert solution.feasible == (residual < 1e-9)
        assert abs(solution.residual - residual) <= 1e-12
        bound = 1e-12 * max(1.0, np.max(np.abs(x)))
        assert np.max(np.abs(solution.coefficients - x)) <= bound
        assert len(solution.singular_values) == len(sv)
        assert np.max(np.abs(solution.singular_values - sv)) <= 1e-12


def _scaled_block_problem(rng):
    """Six one-column blocks and one three-column block: (rows, cols, vals, rhs, shape)."""
    rows = list(range(12))  # column j < 6 has rows 2j, 2j + 1
    cols = [j for j in range(6) for _ in range(2)]
    for r in range(12, 16):  # columns 6..8 share rows 12..15
        rows += [r] * 3
        cols += [6, 7, 8]
    vals = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return np.array(rows), np.array(cols), vals, rhs, (16, 9)


@pytest.mark.parametrize("block_k", [0, 300, 600, 1000, -600])
@pytest.mark.parametrize("seed", range(3))
def test_block_solve_scales_back_columns_scaled_by_powers_of_two(seed, block_k):
    # a column scaled by 2**-k solves to x scaled by 2**k at the same rank:
    # |c|**2 under- or overflows from |k| ~ 511 on unless the column is
    # rescaled before squaring.  One-column blocks take their own k; the
    # three-column block is scaled as a whole, as its cutoff is relative.
    rng = np.random.default_rng(seed)
    rows, cols, vals, rhs, shape = _scaled_block_problem(rng)
    x0, rank0, sv0 = entangle._block_lstsq(rows, cols, vals, rhs, shape)
    assert rank0 == 9
    k = np.concatenate([rng.integers(-600, 1001, 6), [block_k] * 3])
    scale = np.ldexp(1.0, -k)  # exact powers of two
    x, rank, sv = entangle._block_lstsq(rows, cols, vals * scale[cols], rhs, shape)
    assert rank == rank0
    assert np.allclose(x * scale, x0, rtol=1e-12, atol=0)
    norms = np.sqrt(np.bincount(cols[:12], np.abs(vals[:12]) ** 2))
    block = np.linalg.svd(vals[12:].reshape(4, 3), compute_uv=False)
    want = np.sort(np.concatenate([norms * scale[:6], block * scale[6]]))[::-1]
    assert np.allclose(sv, want, rtol=1e-12, atol=0)


# -- the solver's residual against the pipeline --------------------------------


def _pipeline_residual(state, diffs, target, weight):
    """|integral(weight * state) - target| through integrate_graded."""
    image = integrate_graded(IntegralSpec(weight, diffs), state).terms
    want = {(MONOMIAL_ONE, ket): c for ket, c in target.terms().items()}
    keys = image.keys() | want.keys()
    return math.sqrt(sum(abs(image.get(k, 0.0) - want.get(k, 0.0)) ** 2 for k in keys))


def _random_target(rng, dims):
    amps = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
    return PlainState(dims, amps / np.linalg.norm(amps))


def _solve_problems():
    """The catalog's 38 runs and the solve benchmark's problems: (id, recipe, target)."""
    rng = np.random.default_rng(11)
    problems = []
    for entry_id, params, _ in CATALOG_RUNS:
        recipe = build_recipe(entry_id, **params)
        label = entry_id + "".join(f"-{k}={v}" for k, v in params.items())
        problems.append((label, recipe, recipe.target.normalized()))
    qubits = build_recipe("ghz_n", n=8)
    problems.append(("dense8", qubits, _random_target(rng, qubits.target.dims)))
    problems.append(("ghz8", qubits, qubits.target.normalized()))
    for n in (9, 10, 11):
        recipe = build_recipe("qudit_mes_n", n=n)
        problems.append((f"qudit{n}", recipe, _random_target(rng, recipe.target.dims)))
    mixed = build_recipe("qutrit_mixed_02_20")
    problems.append(("mixed", mixed, mixed.target.normalized()))
    return problems


SOLVE_PROBLEMS = _solve_problems()


@pytest.mark.parametrize("problem", SOLVE_PROBLEMS, ids=[p[0] for p in SOLVE_PROBLEMS])
def test_solve_weight_residual_matches_the_pipeline(problem, monkeypatch):
    _, recipe, target = problem
    calls = []
    real = entangle.integrate_graded
    monkeypatch.setattr(entangle, "integrate_graded", lambda *a: calls.append(a) or real(*a))
    solution = solve_weight(recipe.state, recipe.differentials, target, recipe.solver_basis)
    assert calls == []  # one join per solve: no second pass through the pipeline
    residual = _pipeline_residual(recipe.state, recipe.differentials, target, solution.weight)
    assert abs(solution.residual - residual) <= 1e-12
    assert solution.feasible == (residual < 1e-9)


# -- the table-backed basis against the list of its monomials --------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monomial_basis_rows_run_in_product_order(n):
    ctx = AlgebraContext(n)
    pool = [Variable(3), T2, TB1, T1]  # not in canonical order
    for k in range(5):
        given = pool[:k] + pool[:k][:1]  # a repeat too
        variables = sorted(pool[:k])
        for top in range(-3, n):
            basis = entangle.MonomialBasis(ctx, given, top)
            rows = list(itertools.product(range(max(top + 1, 0)), repeat=k))
            monos = [Monomial(tuple((v, e) for v, e in zip(variables, r) if e)) for r in rows]
            assert basis.slots == tuple(variables)
            assert basis.exps.dtype == np.int64 and basis.exps.shape == (len(rows), k)
            assert list(map(tuple, basis.exps.tolist())) == rows
            assert len(basis) == len(rows)
            assert list(basis) == monos
            assert [basis[i] for i in range(-len(rows), 0)] == monos
            assert basis[1:3] == monos[1:3]
            with pytest.raises(IndexError):
                basis[len(rows)]


def _solution_bits(solution):
    """x, rank, residual, feasibility, singular values, weight terms and basis, bitwise."""
    terms = [(m, c.real.hex(), c.imag.hex()) for m, c in solution.weight.terms.items()]
    return (solution.coefficients.tobytes(), solution.rank, solution.residual.hex(),
            solution.feasible, solution.singular_values.tobytes(), terms, list(solution.basis))


# name: (phase table, differentials, basis variables, whether the basis at
# max_exponent n-1 is the grid the index join reads: radix n over exactly
# the differentials, in any order, with variables off them or missing from
# the state)
BASIS_CASES = {
    "default": (*JOIN_CASES["default"], JOIN_VARIABLES, True),
    "override": (*JOIN_CASES["override"], JOIN_VARIABLES, True),
    "residue": (*JOIN_CASES["residue"], JOIN_VARIABLES, False),  # a superset
    "rest": (PhaseTable(), (T2, T1), [T1, T2], True),
    "rest-override": (JOIN_CASES["override"][0], (T2, TB1), [TB1, T2], True),
    "unheld": (PhaseTable(), (T3, T1), [T1, T3], True),
    "width-0": (PhaseTable(), (), [], True),
    "subset": (PhaseTable(), (T2, T1), [T1], False),
    "others": (PhaseTable(), (T1,), [T2, TB1], False),
}


def _count_sort_merge_joins(monkeypatch):
    """A list that gains one entry per call of _row_keys, which solve_weight
    makes once for its rows and the sort-merge join once more; the index
    join makes none."""
    calls = []
    row_keys = entangle._row_keys
    monkeypatch.setattr(entangle, "_row_keys", lambda *a: calls.append(1) or row_keys(*a))
    return calls


@pytest.mark.parametrize("top", [None, 0, "n-1"])
@pytest.mark.parametrize("case", list(BASIS_CASES))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_table_basis_solves_as_its_list(n, case, top, monkeypatch):
    table, diffs, variables, grid = BASIS_CASES[case]
    ctx = AlgebraContext(n, phase_table=table)
    top = n - 1 if top == "n-1" else top
    grid = grid and top != 0  # max_exponent 0 < n-1 is no grid
    rng = np.random.default_rng(300 * n + len(diffs))
    state = _random_graded(ctx, rng)
    basis = entangle.MonomialBasis(ctx, variables, top)
    image = integrate_graded(
        IntegralSpec(_random_weight(ctx, rng, basis), diffs), state
    ).plain_projection()
    noise = PlainState((2, 3), rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for target in (image, noise):
        calls = _count_sort_merge_joins(monkeypatch)
        got = solve_weight(state, diffs, target, basis)
        assert len(calls) == (1 if grid else 2)
        monkeypatch.undo()
        listed = list(entangle.MonomialBasis(ctx, variables, top))
        want = solve_weight(state, diffs, target, listed)
        assert got.basis is basis
        assert _solution_bits(got) == _solution_bits(want)


@pytest.mark.parametrize("width", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_exponent_of_n_or_more_raises_as_its_list(n, width):
    ctx = AlgebraContext(n)
    state = _random_graded(ctx, np.random.default_rng(n))
    diffs = tuple(JOIN_VARIABLES[:width])
    target = PlainState((2, 3), np.ones(6))
    for top in (n, n + 1):
        basis = entangle.MonomialBasis(ctx, diffs, top)
        assert basis.radix > n
        if width == 0:  # the monomial 1: nothing out of range
            assert solve_weight(state, diffs, target, basis).basis is basis
            continue
        with pytest.raises(ValueError) as listed:
            solve_weight(state, diffs, target, list(basis))
        with pytest.raises(ValueError) as table_basis:
            solve_weight(state, diffs, target, basis)
        assert str(table_basis.value) == str(listed.value)
        assert str(listed.value) == f"exponent {n} of {diffs[-1].name} lies outside 1..{n - 1}"


@pytest.mark.parametrize("problem", SOLVE_PROBLEMS, ids=[p[0] for p in SOLVE_PROBLEMS])
def test_solver_basis_solves_as_its_list(problem):
    _, recipe, target = problem
    got = solve_weight(recipe.state, recipe.differentials, target, recipe.solver_basis)
    listed = list(entangle.MonomialBasis(recipe.ctx, recipe.differentials))
    want = solve_weight(recipe.state, recipe.differentials, target, listed)
    assert _solution_bits(got) == _solution_bits(want)


@pytest.mark.parametrize("problem", SOLVE_PROBLEMS, ids=[p[0] for p in SOLVE_PROBLEMS])
def test_solver_bases_take_the_index_join(problem, monkeypatch):
    _, recipe, target = problem
    calls = _count_sort_merge_joins(monkeypatch)
    solve_weight(recipe.state, recipe.differentials, target, recipe.solver_basis)
    assert calls == [1]
    solve_weight(recipe.state, recipe.differentials, target, list(recipe.solver_basis))
    assert calls == [1, 1, 1]


def test_table_basis_boxes_only_the_weights_monomials(monkeypatch):
    boxed = []

    def counting(pairs):
        boxed.append(pairs)
        return Monomial(pairs)

    monkeypatch.setattr(entangle, "Monomial", counting)
    recipe = build_recipe("ghz_n", n=10)
    basis = recipe.solver_basis
    solution = solve_weight(recipe.state, recipe.differentials, recipe.target.normalized(), basis)
    assert solution.feasible and solution.basis is basis
    assert 0 < len(boxed) <= len(solution.weight.terms)
    seen = len(boxed)
    assert len(solution.basis) == 2**10  # what a trace reads on every pass
    assert basis[3] is basis[3]
    assert len(boxed) == seen + 1


# -- the weight read: one bulk read of x, bitwise the per-column loop -------------


def _loop_weight(ctx, basis, x):
    """The weight as a loop over the nonzero columns reads it, one at a time."""
    terms = {}
    for j in np.flatnonzero(x).tolist():
        m = basis[j]
        terms[m] = terms.get(m, 0.0) + x[j]
    return AlgebraElement(ctx, terms)


def _weight_bits(weight):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in weight.terms.items()]


def _assert_reads_as_the_loop(ctx, solution):
    want = _loop_weight(ctx, solution.basis, solution.coefficients)
    assert _weight_bits(solution.weight) == _weight_bits(want)
    assert not any(math.copysign(1.0, part) < 0 and part == 0
                   for c in solution.weight.terms.values() for part in (c.real, c.imag))


def _benchmark_solve_problems():
    """The solve benchmark's six problems at seeds 0-2, targets drawn as it draws them."""
    qubits = build_recipe("ghz_n", n=8)
    qudits = [build_recipe("qudit_mes_n", n=n) for n in (9, 10, 11)]
    mixed = build_recipe("qutrit_mixed_02_20")
    problems = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        problems.append((f"dense8-seed{seed}", qubits, _random_target(rng, qubits.target.dims)))
        problems.append((f"ghz8-seed{seed}", qubits, qubits.target.normalized()))
        for recipe in qudits:
            label = f"qudit{recipe.params['n']}-seed{seed}"
            problems.append((label, recipe, _random_target(rng, recipe.target.dims)))
        problems.append((f"mixed-seed{seed}", mixed, mixed.target.normalized()))
    return problems


READ_PROBLEMS = SOLVE_PROBLEMS[: len(CATALOG_RUNS)] + _benchmark_solve_problems()


@pytest.mark.parametrize("problem", READ_PROBLEMS, ids=[p[0] for p in READ_PROBLEMS])
def test_weight_read_is_bitwise_the_per_column_loop(problem):
    _, recipe, target = problem
    got = solve_weight(recipe.state, recipe.differentials, target, recipe.solver_basis)
    _assert_reads_as_the_loop(recipe.ctx, got)
    listed = list(entangle.MonomialBasis(recipe.ctx, recipe.differentials))
    want = solve_weight(recipe.state, recipe.differentials, target, listed)
    _assert_reads_as_the_loop(recipe.ctx, want)
    assert _solution_bits(got) == _solution_bits(want)


def test_listed_weight_read_sums_repeats_and_skips_zero_columns():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = squeezed_state_exp(ctx, t, 3)  # 1|0> + t|2>: no term meets the weight 1
    target = PlainState((3,), np.array([0.6, 0.0, 0.8j]))
    t1, t2 = Monomial(((t, 1),)), Monomial(((t, 2),))
    basis = [t2, MONOMIAL_ONE, t1, t2, t1, t2]
    solution = solve_weight(state, (t,), target, basis)
    x = solution.coefficients
    assert x[1] == 0 and np.count_nonzero(x) == 5
    assert solution.feasible and list(solution.weight.terms) == [t2, t1]
    _assert_reads_as_the_loop(ctx, solution)


def test_weight_read_writes_a_zero_part_as_positive_zero(monkeypatch):
    # x parts of either sign of zero, as a block's SVD may leave them
    crafted = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0),
               complex(0.0, -3.0), complex(-1.0, 0.0)]
    real = entangle._block_lstsq

    def signed_zeros(*args):
        x, rank, values = real(*args)
        x[: len(crafted)] = crafted
        return x, rank, values

    monkeypatch.setattr(entangle, "_block_lstsq", signed_zeros)
    recipe = build_recipe("qutrit_psi_pm", sign=1)
    target = recipe.target.normalized()
    for basis in (recipe.solver_basis, list(recipe.solver_basis),
                  list(recipe.solver_basis)[:2] * 3):
        solution = solve_weight(recipe.state, recipe.differentials, target, basis)
        assert any(math.copysign(1.0, part) < 0
                   for c in solution.coefficients.tolist() for part in (c.real, c.imag) if part == 0)
        _assert_reads_as_the_loop(recipe.ctx, solution)


def test_an_empty_basis_raises_in_every_form():
    recipe = build_recipe("qutrit_psi_pm", sign=1)
    target = recipe.target.normalized()
    for basis in ([], (), (m for m in []), iter([]),
                  entangle.MonomialBasis(recipe.ctx, recipe.differentials, -1)):
        with pytest.raises(ValueError, match="empty weight basis"):
            solve_weight(recipe.state, recipe.differentials, target, basis)


def test_bulk_boxing_keeps_the_boxing_contract(monkeypatch):
    boxed = []

    def counting(pairs):
        boxed.append(pairs)
        return Monomial(pairs)

    monkeypatch.setattr(entangle, "Monomial", counting)
    ctx = AlgebraContext(3)
    basis = entangle.MonomialBasis(ctx, [T1, T2, TB1])
    first, third = basis[3], basis[-2]
    assert len(boxed) == 2
    rows = [0, 3, 7, len(basis) - 2, 12]
    monos = basis._box(rows)
    assert len(boxed) == 5  # rows 0, 7 and 12 only
    assert monos[1] is first and monos[3] is third
    assert all(m is basis[i] for m, i in zip(monos, rows))
    assert basis[2:9] == [basis[i] for i in range(2, 9)]
    assert len(boxed) == 5 + 5  # the slice boxes rows 2, 4, 5, 6 and 8
    assert basis._box([]) == [] and len(boxed) == 10
    listed = list(entangle.MonomialBasis(ctx, [T1, T2, TB1]))
    assert basis._box(list(range(len(basis)))) == listed
