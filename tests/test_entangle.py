"""Pipeline, measures and solver tests.

Expected reduced densities and Schmidt spectra are frozen from direct
dense linear algebra (partial traces and SVDs written out by hand here),
independent of the library's implementations.
"""

import itertools
import math
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
    monomial_basis,
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


CUT_SPECTRA_STATES = {
    "dense-2^8": lambda: _random_dense((2,) * 8, 1),
    "dense-3x3x2x2x2x2": lambda: _random_dense((3, 3, 2, 2, 2, 2), 2),
    "dense-2x3x4": lambda: _random_dense((2, 3, 4), 3),
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
    for cut in cuts:
        want = bipartition_spectrum(state, cut)
        assert len(spectra[cut]) == len(want)
        assert all(type(x) is float for x in spectra[cut])
        assert np.max(np.abs(np.asarray(spectra[cut]) - want)) <= 1e-12
        rest = tuple(k for k in range(nsites) if k not in cut)
        assert spectra[cut] is spectra[rest]


def test_cut_spectra_single_site_and_zero_state():
    assert entangle.cut_spectra(plain((3,), {(1,): 1.0})) == {}
    with pytest.raises(ValueError, match="zero state"):
        entangle.cut_spectra(PlainState((2, 3), np.zeros(6)))


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 3), (2, 3, 2), (3, 2, 2, 2), (2,) * 6],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_entanglement_report_one_svd_per_unordered_cut(monkeypatch, dims):
    rng = np.random.default_rng(sum(dims) * 31 + len(dims))
    size = math.prod(dims)
    state = PlainState(dims, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    original = np.linalg.svd
    matrices = []

    def counted(a, *args, **kwargs):
        matrices.append(math.prod(np.shape(a)[:-2]))  # a stack of matrices counts each
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = entanglement_report(state)
    monkeypatch.undo()
    nsites = len(dims)
    assert sum(matrices) == 2 ** (nsites - 1) - 1
    cuts = [
        cut
        for r in range(1, nsites)
        for cut in itertools.combinations(range(nsites), r)
    ]
    assert list(report.bipartition_schmidt) == cuts
    for cut in cuts:
        fresh = bipartition_spectrum(state, cut)
        got = report.bipartition_schmidt[cut]
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
    solution = solve_weight(state, (t1, t2), target, monomial_basis(ctx, [t1, t2]))
    assert solution.feasible
    assert solution.residual < 1e-9
    for mono, coeff in solution.weight.terms.items():
        assert mono.exponent(t1) == mono.exponent(t2) or abs(coeff) < 1e-9


def test_solver_single_variable_cannot_reach_02_plus_20():
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    state = tensor([coherent_state(ctx, t, 3)] * 2)
    target = plain((3, 3), {(0, 2): AMP2, (2, 0): AMP2})
    solution = solve_weight(state, (t,), target, monomial_basis(ctx, [t]))
    assert not solution.feasible
    assert solution.residual > 0.1


def test_solver_round_trip_recovers_random_weight_image():
    rng = np.random.default_rng(5)
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    state = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    basis = monomial_basis(ctx, [t1, t2])
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
        state, (t,), ghz(3), monomial_basis(ctx, [t])
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
        solve_weight(state, (t, t), ghz(2), monomial_basis(ctx, [t]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize("where", ["scale", "target"])
def test_solver_raises_when_its_residual_overflows(where):
    # a finite but huge scale overflows the tensor product (1e200 * 1e200) and
    # the residual is nan; a huge amplitude on a ket no basis column reaches
    # overflows the residual's norm to inf.  Both used to be reported.
    ctx = AlgebraContext(2)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    scale, amp = (1e200, 1.0) if where == "scale" else (1.0, complex(1e308, 1e308))
    state = tensor([coherent_state(ctx, t1, 2, scale), coherent_state(ctx, t2, 2, scale)])
    target = plain((2, 2), {(0, 0): 1.0, (1, 1): amp})
    basis = monomial_basis(ctx, [t1, t2]) if where == "scale" else [Monomial(((t1, 1), (t2, 1)))]
    with pytest.raises(ValueError, match="overflowed"):
        solve_weight(state, (t1, t2), target, basis)


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
    weight = _random_weight(ctx, rng, monomial_basis(ctx, JOIN_VARIABLES))
    want = state.left_multiply(weight).multi_integrate(diffs).terms
    got = integrate_graded(IntegralSpec(weight, diffs), state).terms
    _assert_terms_close(got, want)
    if case == "residue":
        assert any(mono != MONOMIAL_ONE for mono, _ in want)
    if 0 < len(diffs) < len(JOIN_VARIABLES):
        # several weight terms share one differential key
        keys = Counter(tuple(m.exponent(d) for d in diffs) for m in weight.terms)
        assert max(keys.values()) > 1


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
    basis = monomial_basis(ctx, JOIN_VARIABLES)
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
    basis = monomial_basis(ctx, JOIN_VARIABLES)
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
    basis = monomial_basis(ctx, JOIN_VARIABLES)
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
