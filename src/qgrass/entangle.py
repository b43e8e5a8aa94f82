"""Weight-integral pipeline, entanglement measures and the weight solver.

The central operation multiplies a Grassmann weight function onto a
product of graded states from the left and Berezin-integrates the listed
variables (rightmost differential first).  Since integral d(theta)
theta**e = delta(e, n-1), a weight monomial w and a state term m|k> only
contribute when w_d + m_d = n-1 on every differential slot d, so the
product and the integrals run as one join on the differential exponents
and the dead pairs are never multiplied.  A successful construction is
Grassmann-free afterwards; leftover monomials signal an incomplete
differential list.

Measures operate on plain states: reduced density matrices, the two
purity conventions (qubit average and the d-level linear-entropy
normalization), bipartition Schmidt spectra, and the maximal-entanglement
test (every single-site reduction maximally mixed).

solve_weight inverts the pipeline: it assembles the linear map from
weight coefficients on a monomial basis to integrated amplitudes in one
join over the whole basis and returns the minimum-norm least-squares
weight, re-verified through integrate_graded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement, Monomial, MONOMIAL_ONE, Variable
from .algebra import integrate_monomial, monomial_product, q_power
from .qstate import BasisKet, GradedState, PlainState

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class IntegralSpec:
    """A weight function together with the ordered differential list."""

    weight: AlgebraElement
    differentials: tuple[Variable, ...]

    def __post_init__(self) -> None:
        if len(set(self.differentials)) != len(self.differentials):
            raise ValueError("differentials must be distinct")


def _integrate_columns(
    weights: Sequence[Mapping[Monomial, complex]],
    differentials: Sequence[Variable],
    state: GradedState,
) -> list[dict[tuple[Monomial, BasisKet], complex]]:
    """Terms of integral(weights[j] * state) for every column j.

    Weight terms are bucketed by their exponents on the differentials; a
    state term meets only the bucket keyed n-1-m_d, the one pairing that
    survives every integral.  Surviving pairs go through monomial_product
    and integrate_monomial.  Per ket the join sums state terms outer and
    weight terms inner, the reverse of left_multiply's w * f_k, so the two
    agree up to rounding (removing the differential blocks is injective).
    """
    n, table = state.ctx.n, state.ctx.phase_table
    buckets: dict[tuple[int, ...], list] = {}
    for j, terms in enumerate(weights):
        for mono, c in terms.items():
            slot = tuple(mono.exponent(d) for d in differentials)
            buckets.setdefault(slot, []).append((j, mono, c))
    columns: list[dict] = [{} for _ in weights]
    for ket, f in state.parts.items():
        for mono, c in f.terms.items():
            need = tuple(n - 1 - mono.exponent(d) for d in differentials)
            for j, wmono, wc in buckets.get(need, ()):
                qexp, new = monomial_product(wmono, mono, table, n)
                if new is not None:
                    # the bucket key gives every differential exponent n-1
                    iexp, rest = integrate_monomial(new, differentials, table, n)
                    col = columns[j]
                    col[rest, ket] = col.get((rest, ket), 0.0) + wc * c * q_power(n, qexp + iexp)
    return columns


def integrate_graded(spec: IntegralSpec, state: GradedState) -> GradedState:
    """weight * state, integrated right-to-left; may retain Grassmann terms.

    Equals state.left_multiply(weight).multi_integrate(differentials), but
    only pairs with w_d + m_d = n-1 on every differential d are multiplied.
    """
    if spec.weight.ctx != state.ctx:
        raise ValueError("weight and state use different algebra contexts")
    (terms,) = _integrate_columns([spec.weight.terms], spec.differentials, state)
    return GradedState(state.ctx, state.space, terms)


def apply_weight_and_integrate(
    spec: IntegralSpec, state: GradedState, tol: float = DEFAULT_TOL
) -> PlainState:
    """Integrate and require a Grassmann-free result.

    Raises GrassmannResidueError when monomial content of norm > tol
    survives all integrals.
    """
    return integrate_graded(spec, state).to_plain(tol=tol)


# -- density matrices and measures -------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError("density matrix shape mismatch")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")

    def spectrum(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(self.entries))[::-1]

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def reduced_density(state: PlainState, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace onto the listed sites (0-based), input normalized first."""
    keep = sorted(set(int(k) for k in keep))
    nsites = state.nsites
    if any(k < 0 or k >= nsites for k in keep):
        raise ValueError(f"keep sites {keep} out of range for {nsites} sites")
    psi = state.normalized().amps.reshape(state.dims)
    traced = [ax for ax in range(nsites) if ax not in keep]
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    dim = 1
    for k in keep:
        dim *= state.dims[k]
    return DensityMatrix(dim, rho.reshape(dim, dim))


def purity_viola(state: PlainState) -> float:
    """(2/n) sum_i tr rho_i^2 - 1 over qubit sites; 0 on maximally entangled."""
    if any(d != 2 for d in state.dims):
        raise ValueError("qubit purity needs two-level sites; use purity_linear")
    return _qubit_average(_site_purities(state))


def purity_linear(state: PlainState) -> float:
    """Average of (d_i tr rho_i^2 - 1)/(d_i - 1); matches the qubit formula at d=2."""
    return _linear_entropy(state.dims, _site_purities(state))


def _site_purities(state: PlainState) -> list[float]:
    return [reduced_density(state, [i]).purity() for i in range(state.nsites)]


def _qubit_average(purities: Sequence[float]) -> float:
    return (2.0 / len(purities)) * sum(purities) - 1.0


def _linear_entropy(dims: Sequence[int], purities: Sequence[float]) -> float:
    return float(np.mean([(d * p - 1.0) / (d - 1.0) for d, p in zip(dims, purities)]))


def bipartition_spectrum(state: PlainState, cut: Iterable[int]) -> np.ndarray:
    """Normalized Schmidt coefficients across the cut (descending)."""
    cut = sorted(set(int(k) for k in cut))
    nsites = state.nsites
    if not cut or len(cut) >= nsites:
        raise ValueError("cut must be a nonempty proper subset of sites")
    rest = [ax for ax in range(nsites) if ax not in cut]
    psi = state.normalized().amps.reshape(state.dims)
    da = int(np.prod([state.dims[k] for k in cut]))
    matrix = np.transpose(psi, cut + rest).reshape(da, -1)
    s = np.linalg.svd(matrix, compute_uv=False)
    nrm = np.linalg.norm(s)
    return s / nrm


def schmidt_rank(spectrum: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    return int(np.sum(np.asarray(spectrum) > tol))


@dataclass
class EntanglementReport:
    """Per-site spectra, bipartition Schmidt data and the aggregate purity."""

    purity: float
    purity_kind: str
    rdm_spectra: list[list[float]]
    bipartition_schmidt: dict[tuple[int, ...], list[float]]
    max_entangled: bool


def cut_spectra(state: PlainState) -> dict[tuple[int, ...], list[float]]:
    """Schmidt spectrum of every proper cut, keyed by the cut's sites.

    A cut and its complement share one spectrum, so each unordered pair is
    decomposed once and stored under both keys; keys run by cut size, then
    lexicographically.
    """
    nsites = state.nsites
    spectra: dict[tuple[int, ...], list[float]] = {}
    for r in range(1, nsites):
        for cut in itertools.combinations(range(nsites), r):
            rest = tuple(k for k in range(nsites) if k not in cut)
            if rest in spectra:
                spectra[cut] = spectra[rest]
            else:
                spectra[cut] = [float(x) for x in bipartition_spectrum(state, cut)]
    return spectra


def entanglement_report(state: PlainState, tol: float = DEFAULT_TOL) -> EntanglementReport:
    rdms = [reduced_density(state, [i]) for i in range(state.nsites)]
    spectra = [[float(x) for x in rho.spectrum()] for rho in rdms]
    max_ent = all(
        all(abs(lam - 1.0 / d) <= tol for lam in spec)
        for spec, d in zip(spectra, state.dims)
    )
    purities = [rho.purity() for rho in rdms]
    if all(d == 2 for d in state.dims):
        purity, kind = _qubit_average(purities), "qubit-average"
    else:
        purity, kind = _linear_entropy(state.dims, purities), "linear-entropy"
    return EntanglementReport(purity, kind, spectra, cut_spectra(state), max_ent)


def is_maximally_entangled(
    state: PlainState, tol: float = DEFAULT_TOL
) -> tuple[bool, EntanglementReport]:
    """True iff every single-site reduced density matrix is maximally mixed."""
    report = entanglement_report(state, tol=tol)
    return report.max_entangled, report


# -- weight solver ------------------------------------------------------------


@dataclass
class WeightSolution:
    """Minimum-norm least-squares weight for an integral synthesis problem."""

    weight: AlgebraElement
    residual: float
    feasible: bool
    basis: tuple[Monomial, ...]
    rank: int
    coefficients: np.ndarray = field(repr=False, default=None)
    singular_values: np.ndarray = field(repr=False, default=None)


def monomial_basis(
    ctx, variables: Sequence[Variable], max_exponent: int | None = None
) -> list[Monomial]:
    """All products of powers of the given variables, each exponent < n."""
    top = ctx.n - 1 if max_exponent is None else max_exponent
    variables = sorted(set(variables), key=lambda v: v.sort_key)
    basis = []
    for exps in itertools.product(range(top + 1), repeat=len(variables)):
        pairs = tuple((v, e) for v, e in zip(variables, exps) if e)
        basis.append(Monomial(pairs))
    return basis


def solve_weight(
    state: GradedState,
    differentials: Sequence[Variable],
    target: PlainState,
    basis: Sequence[Monomial],
    tol: float = DEFAULT_TOL,
) -> WeightSolution:
    """Solve min || integrate(w * state) - target || over weights on the basis.

    Column j is integral(basis[j] * state); all columns come from one join
    pass, in which a basis monomial w meets only the state terms with
    w_d + m_d = n-1 on every differential d.
    Rows cover every term the candidate weights can produce, including
    residual Grassmann terms (targeted to zero), so feasibility demands a
    clean Grassmann-free match.  The reported residual is recomputed by
    running the assembled weight back through integrate_graded.  Every
    basis exponent must lie in 1..n-1 (ValueError otherwise).
    """
    if not basis:
        raise ValueError("empty weight basis")
    ctx = state.ctx
    if any(not 1 <= e < ctx.n for m in basis for _, e in m.exps):
        raise ValueError(f"basis exponents must lie in 1..{ctx.n - 1}")
    if target.dims != state.space.dims:
        raise ValueError("target dimensions do not match the state")
    differentials = tuple(differentials)

    columns = _integrate_columns([{m: 1.0} for m in basis], differentials, state)
    row_keys: dict[tuple[Monomial, BasisKet], int] = {}
    for col in columns:
        for key in col:
            row_keys.setdefault(key, len(row_keys))
    for ket in target.terms(tol=0.0):
        row_keys.setdefault((MONOMIAL_ONE, ket), len(row_keys))

    mat = np.zeros((len(row_keys), len(basis)), dtype=complex)
    for j, col in enumerate(columns):
        for key, c in col.items():
            mat[row_keys[key], j] = c
    rhs = np.zeros(len(row_keys), dtype=complex)
    for key, idx in row_keys.items():
        mono, ket = key
        if mono == MONOMIAL_ONE:
            rhs[idx] = target.coefficient(ket)

    x, _, rank, singular_values = np.linalg.lstsq(mat, rhs, rcond=None)
    terms: dict[Monomial, complex] = {}
    for m, c in zip(basis, x):  # a repeated basis monomial sums its columns
        terms[m] = terms.get(m, 0.0) + c
    weight = AlgebraElement(ctx, terms)

    # independent residual through the real pipeline
    image = integrate_graded(IntegralSpec(weight, differentials), state).terms
    keys = set(image) | {(MONOMIAL_ONE, k) for k in target.terms(tol=0.0)}
    sq = 0.0
    for key in keys:
        mono, ket = key
        want = target.coefficient(ket) if mono == MONOMIAL_ONE else 0.0
        sq += abs(image.get(key, 0.0) - want) ** 2
    residual = math.sqrt(sq)

    return WeightSolution(
        weight=weight,
        residual=residual,
        feasible=residual < tol,
        basis=tuple(basis),
        rank=int(rank),
        coefficients=x,
        singular_values=singular_values,
    )
