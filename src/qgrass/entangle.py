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
test (every single-site reduction maximally mixed).  cut_spectra
decomposes every unordered cut of a state from its nonzero amplitudes
only, as small matrices stacked by shape into a few batched SVDs;
bipartition_spectrum is the dense one-cut routine.

solve_weight inverts the pipeline: it assembles the linear map from
weight coefficients on a monomial basis to integrated amplitudes in one
join over the whole basis and returns the minimum-norm least-squares
weight, re-verified through integrate_graded.  The map is block diagonal
up to a permutation (columns sharing a row form a block), so it is solved
block by block under lstsq's one global cutoff and never stored densely.
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
    slot_of = {d: i for i, d in enumerate(differentials)}

    def slots(mono: Monomial) -> list[int]:
        """Exponent of mono on each differential, in one pass over its blocks."""
        out = [0] * len(differentials)
        for v, e in mono.exps:
            i = slot_of.get(v)
            if i is not None:
                out[i] = e
        return out

    buckets: dict[tuple[int, ...], list] = {}
    for j, terms in enumerate(weights):
        for mono, c in terms.items():
            buckets.setdefault(tuple(slots(mono)), []).append((j, mono, c))
    columns: list[dict] = [{} for _ in weights]
    for ket, f in state.parts.items():
        for mono, c in f.terms.items():
            need = tuple(n - 1 - e for e in slots(mono))
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
    if any(k < 0 or k >= nsites for k in cut):
        raise ValueError(f"cut sites {cut} out of range for {nsites} sites")
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


# entries per stacked SVD: bounds the memory a large dense state needs
_STACK_ENTRIES = 1 << 16


def cut_spectra(state: PlainState) -> dict[tuple[int, ...], list[float]]:
    """Schmidt spectrum of every proper cut, keyed by the cut's sites.

    A cut and its complement share one spectrum, so each unordered pair is
    decomposed once and stored under both keys; keys run by cut size, then
    lexicographically.  Each list has min(d_cut, d_rest) values, descending
    and of unit norm, like bipartition_spectrum.

    The state is normalized once and only its K nonzero amplitudes enter.
    One matrix product of their digits with per-cut place values gives each
    amplitude's row key (its digits on the larger side of the cut) and
    column key (the smaller side) for every cut at once.  A cut's matrix is
    min(K, d_large) x min(K, d_small): an axis longer than K is indexed by
    the rank of its key instead, which only drops zero rows or columns, so
    the nonzero singular values are those of the full matrix; the spectrum
    is padded with 0.0.  Cuts with the same matrix shape are decomposed in
    one stacked SVD.
    """
    nsites = state.nsites
    if nsites < 2:
        return {}
    psi = state.normalized().amps
    support = np.flatnonzero(psi)
    amps, nsupp = psi[support], len(support)
    # keys are integers below 2**53, so BLAS float64 products give them exactly
    digits = np.stack(np.unravel_index(support, state.dims), axis=1).astype(float)  # K x S

    # Complementing reverses lexicographic order: the i-th of the C cuts of
    # size r is the complement of the (C-1-i)-th cut of size S-r.
    cuts: list[tuple[int, ...]] = []
    reps: list[tuple[int, ...]] = []  # the first-listed cut of each pair
    pair: list[int] = []  # per cut, the index of its pair in reps
    first: dict[int, int] = {}  # cut size -> index in reps of its first cut
    for r in range(1, nsites):
        sized = list(itertools.combinations(range(nsites), r))
        total = len(sized)
        new = total if 2 * r < nsites else total // 2 if 2 * r == nsites else 0
        first[r] = len(reps)
        reps += sized[:new]
        pair += range(first[r], first[r] + new)
        if new < total:
            start = first[nsites - r]
            pair += range(start + total - 1 - new, start - 1, -1)
        cuts += sized

    dims = np.array(state.dims, dtype=np.int64)
    on_rows = np.zeros((len(reps), nsites), dtype=bool)
    on_rows[np.repeat(np.arange(len(reps)), [len(c) for c in reps]),
            list(itertools.chain.from_iterable(reps))] = True
    # rows take the larger side: a transpose keeps the spectrum, and numpy's
    # SVD is faster on tall matrices
    cut_size = np.prod(np.where(on_rows, dims, 1), axis=1)
    on_rows ^= (cut_size * cut_size < psi.size)[:, None]
    # C-order place values of each site within its side of every pair
    place, size = [], []
    for side in (on_rows, ~on_rows):
        factors = np.where(side, dims, 1)
        tail = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]  # product over sites >= s
        place.append(np.where(side, tail // factors, 0).T.astype(float))  # S x pairs
        size.append(tail[:, 0])
    (row_place, col_place), (da, db) = place, size
    nrows, ncols = np.minimum(da, nsupp), np.minimum(db, nsupp)

    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, shape in enumerate(zip(nrows.tolist(), ncols.tolist(), db.tolist())):
        groups.setdefault(shape, []).append(i)
    spectra: list[list[float]] = [[] for _ in reps]
    for (rows, cols, m), members in groups.items():
        step = max(1, _STACK_ENTRIES // (rows * cols))
        for lo in range(0, len(members), step):
            idx = np.array(members[lo : lo + step])
            rkeys = _axis_index(digits @ row_place[:, idx], da[idx], nsupp)
            ckeys = _axis_index(digits @ col_place[:, idx], db[idx], nsupp)
            stack = np.zeros((len(idx), rows * cols), dtype=complex)
            stack[np.arange(len(idx))[:, None], (rkeys * cols + ckeys).T] = amps
            s = np.linalg.svd(stack.reshape(-1, rows, cols), compute_uv=False)
            s = s / np.linalg.norm(s, axis=1, keepdims=True)
            pad = [0.0] * (m - s.shape[1])
            for i, row in zip(idx.tolist(), s.tolist()):
                spectra[i] = row + pad
    return {cut: spectra[p] for cut, p in zip(cuts, pair)}


def _axis_index(keys: np.ndarray, length: np.ndarray, nsupp: int) -> np.ndarray:
    """Matrix index of each key (K x cuts): the key itself when every
    cut's axis is at most K long, else the key's rank among its cut's keys."""
    keys = keys.astype(np.int64)
    if np.all(length <= nsupp):
        return keys
    span = int(keys.max()) + 1  # shift each cut's keys into its own range
    _, inverse = np.unique(keys + span * np.arange(keys.shape[1]), return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    return inverse - inverse.min(axis=0)


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
    # every block's values, descending, zero-padded to min(rows, basis) as lstsq
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


def _block_lstsq(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, int, np.ndarray]:
    """np.linalg.lstsq(A, rhs, rcond=None) for A[rows, cols] = vals, never building A.

    Columns that share a row form one block (union-find over the shared
    rows); the min-norm solution, residual and spectrum of A are those of
    its blocks together.  A one-column block c has x = <c, b> / |c|^2 and
    singular value |c|, batched over all such blocks; a larger block gets
    its own SVD; a column without rows gets x = 0 and no value.  As in
    lstsq, one cutoff eps * max(M, N) * s_max over all blocks zeroes the
    small values, rank counts the rest, and the values come back sorted
    descending, padded with zeros to min(M, N).
    """
    m, n = shape
    parent = list(range(n))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first: dict[int, int] = {}
    shared = np.bincount(rows, minlength=m)[rows] > 1
    for r, j in zip(rows[shared].tolist(), cols[shared].tolist()):
        a, b = find(j), find(first.setdefault(r, j))
        if a != b:
            parent[a] = b
    root = np.array([find(j) for j in range(n)], dtype=np.intp)
    single = np.bincount(root, minlength=n)[root] == 1

    norm = np.sqrt(np.bincount(cols, np.abs(vals) ** 2, minlength=n))
    dot = vals.conj() * rhs[rows]
    dot = np.bincount(cols, dot.real, minlength=n) + 1j * np.bincount(cols, dot.imag, minlength=n)
    values = [norm[single & (np.bincount(cols, minlength=n) > 0)]]
    blocks = []
    multi = ~single[cols]
    if multi.any():
        order = np.argsort(root[cols[multi]], kind="stable")
        r, c, v = rows[multi][order], cols[multi][order], vals[multi][order]
        cuts = np.flatnonzero(np.diff(root[c])) + 1
        for rb, cb, vb in zip(np.split(r, cuts), np.split(c, cuts), np.split(v, cuts)):
            block_rows, ri = np.unique(rb, return_inverse=True)
            block_cols, ci = np.unique(cb, return_inverse=True)
            a = np.zeros((len(block_rows), len(block_cols)), dtype=complex)
            a[ri, ci] = vb
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            blocks.append((block_cols, vh.conj().T, u.conj().T @ rhs[block_rows], s))
            values.append(s)

    values = np.sort(np.concatenate(values))[::-1]
    cutoff = np.finfo(float).eps * max(m, n) * (values[0] if len(values) else 0.0)
    x = np.zeros(n, dtype=complex)
    keep = single & (norm > cutoff)
    x[keep] = dot[keep] / norm[keep] ** 2
    for block_cols, v, ub, s in blocks:
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
        x[block_cols] = v @ (ub * inv)
    padded = np.zeros(min(m, n))
    padded[: len(values)] = values
    return x, int(np.sum(values > cutoff)), padded


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
    clean Grassmann-free match.  The least-squares step is _block_lstsq:
    one block per set of columns that share rows, one cutoff
    eps * max(rows, basis) * s_max over all of them, so rank and
    singular_values read as np.linalg.lstsq's on the dense matrix, which
    is never built.  The reported residual is recomputed by
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
    want = {(MONOMIAL_ONE, ket): c for ket, c in target.terms(tol=0.0).items()}
    row_of = {key: i for i, key in enumerate(dict.fromkeys(itertools.chain(*columns, want)))}

    cols = np.repeat(np.arange(len(basis)), [len(col) for col in columns])
    rows = np.fromiter((row_of[key] for col in columns for key in col), np.intp, len(cols))
    vals = np.fromiter((c for col in columns for c in col.values()), complex, len(cols))
    rhs = np.array([want.get(key, 0.0) for key in row_of], dtype=complex)
    x, rank, singular_values = _block_lstsq(rows, cols, vals, rhs, (len(row_of), len(basis)))
    terms: dict[Monomial, complex] = {}
    for m, c in zip(basis, x):  # a repeated basis monomial sums its columns
        terms[m] = terms.get(m, 0.0) + c
    weight = AlgebraElement(ctx, terms)

    # independent residual through the real pipeline
    image = integrate_graded(IntegralSpec(weight, differentials), state).terms
    keys = set(image) | set(want)
    residual = math.sqrt(sum(abs(image.get(k, 0.0) - want.get(k, 0.0)) ** 2 for k in keys))

    return WeightSolution(
        weight=weight,
        residual=residual,
        feasible=residual < tol,
        basis=tuple(basis),
        rank=int(rank),
        coefficients=x,
        singular_values=singular_values,
    )
