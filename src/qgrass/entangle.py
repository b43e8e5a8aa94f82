"""Weight-integral pipeline, entanglement measures and the weight solver.

The central operation multiplies a Grassmann weight function onto a
product of graded states from the left and Berezin-integrates the listed
variables (rightmost differential first).  Since integral d(theta)
theta**e = delta(e, n-1), a weight monomial w and a state term m|k> only
contribute when w_d + m_d = n-1 on every differential slot d, so the
product and the integrals run as one join on the differential exponents
and the dead pairs are never multiplied.  The join reads only the state's
term table (qstate: one row of exponents over the canonical slots per
term, with its coefficient and ket digits), so no state is boxed into
per-ket algebra elements, and integrate_graded returns such a table.
The weight becomes a table over the same slots, pairs are matched by
sorted keys, and the reordering and integration phases are integer dot
products with the phase table's eps matrix.  A successful construction
is Grassmann-free afterwards; leftover monomials signal an incomplete
differential list.

Measures operate on plain states: reduced density matrices, the two
purity conventions (qubit average and the d-level linear-entropy
normalization), bipartition Schmidt spectra, and the maximal-entanglement
test (every single-site reduction maximally mixed).  cut_spectra
decomposes every unordered cut of a state from its nonzero amplitudes
only, as small matrices stacked by shape into a few batched SVDs.
entanglement_report reads everything from that one decomposition: a
site's density spectrum is its single-site cut's Schmidt values squared.
The dense routines (reduced_density, DensityMatrix, bipartition_spectrum,
purity_viola, purity_linear) are single-state API and the tests'
independent references.

solve_weight inverts the pipeline: it assembles the linear map from
weight coefficients on a monomial basis to integrated amplitudes in one
join over the whole basis and returns the minimum-norm least-squares
weight, with the residual formed from the join's own entries.  The map is
block diagonal up to a permutation (columns sharing a row form a block),
so it is solved block by block, each block under its own cutoff, and
never stored densely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgebraElement, Monomial, Variable
from .qstate import (
    GradedState,
    PlainState,
    _Table,
    _exponents,
    _ket_index,
    _roots,
    _row_keys,
    _sum_by,
    _summed,
    _upper_eps,
    _widened,
)

DEFAULT_TOL = 1e-9


def _check_distinct(differentials: Sequence[Variable]) -> None:
    if len(set(differentials)) != len(differentials):
        raise ValueError("differentials must be distinct")


@dataclass(frozen=True)
class IntegralSpec:
    """A weight function together with the ordered differential list."""

    weight: AlgebraElement
    differentials: tuple[Variable, ...]

    def __post_init__(self) -> None:
        _check_distinct(self.differentials)


def _join(
    weight: Sequence[tuple[Monomial, complex]],
    differentials: Sequence[Variable],
    state: GradedState,
):
    """Every surviving (weight term, state term) pair of integral(weight * state).

    Returns (rest, rest_slots, ket, term, value): pair i leaves value[i]
    times the monomial with exponents rest[i] on rest_slots, on the ket
    with digits ket[i], from weight term term[i].  Pairs run state term by
    state term (the rows of the state's term table), weight terms in order.

    The weight terms become an exponent table over the canonical slots,
    the sorted union of the state table's slots, the weight's variables and
    the differentials.  A state term m meets the weight terms w with
    w_d = n-1-m_d on every differential d (sort plus searchsorted, any
    number of w per key), and a pair survives when every summed exponent
    is below n.  Its q-exponent is

        -m.U.w  +  (n-1) * P.p,     P = m + w,

    with U[y, x] = eps(y, x) for slots y < x and 0 elsewhere (the phase of
    monomial_product), and p[u] the sum of U[u, d] over the differentials
    d integrated while u's block is still present, rightmost differential
    first (the phase of integrate_monomial).  U and p are reduced mod n, so
    no product exceeds K * n**2.
    """
    n = state.ctx.n
    table = state._table
    monos = list(map(itemgetter(0), weight))
    slots = sorted(set(table.slots).union(differentials, *(map(itemgetter(0), m) for m in monos)))
    slot_of = {v: i for i, v in enumerate(slots)}
    exps = table.exps if len(slots) == len(table.slots) else _widened(table, slot_of, len(slots))
    wexps = _exponents(monos, slot_of, len(slots))
    diff = [slot_of[d] for d in differentials]

    keys = _row_keys(
        np.concatenate([n - 1 - exps[:, diff], wexps[:, diff]]), [n] * len(diff)
    )
    skey, wkey = keys[: len(exps)], keys[len(exps) :]
    order = np.argsort(wkey, kind="stable")
    lo = np.searchsorted(wkey[order], skey)
    count = np.searchsorted(wkey[order], skey, "right") - lo
    si = np.repeat(np.arange(len(exps)), count)
    wi = order[np.arange(len(si)) + np.repeat(lo + count - np.cumsum(count), count)]
    total = exps[si] + wexps[wi]
    alive = (total < n).all(axis=1)
    si, wi, total = si[alive], wi[alive], total[alive]

    eps = _upper_eps(state.ctx, slots)
    position = [-1] * len(slots)  # of each differential in the integration order
    for i, d in enumerate(diff):
        position[d] = i
    present = np.less.outer(position, np.arange(len(diff)))  # u's block, when d goes
    p = (eps[:, diff] * present).sum(axis=1) % n
    wu = (wexps @ eps.T) % n
    qexp = (n - 1) * ((total @ p) % n) - (exps[si] * wu[wi]).sum(axis=1)
    wcoef = np.fromiter(map(itemgetter(1), weight), complex, len(weight))
    value = wcoef[wi] * table.coef[si] * _roots(n)[qexp % n]

    rest = sorted(set(range(len(slots))).difference(diff))
    return total[:, rest], [slots[i] for i in rest], table.digits[si], wi, value


def integrate_graded(spec: IntegralSpec, state: GradedState) -> GradedState:
    """weight * state, integrated right-to-left; may retain Grassmann terms.

    Equals state.left_multiply(weight).multi_integrate(differentials), but
    only pairs with w_d + m_d = n-1 on every differential d are multiplied
    (_join), and the pairs that leave one (monomial, ket) are summed into a
    term table (_summed), kets in the state's order.
    """
    if spec.weight.ctx != state.ctx:
        raise ValueError("weight and state use different algebra contexts")
    rest, rest_slots, digits, _, value = _join(
        list(spec.weight.terms.items()), spec.differentials, state
    )
    # the join's rows run state row by state row, so their kets are contiguous
    table = _summed(state.ctx.n, rest, value, digits, _ket_index(digits))
    return GradedState._from_table(state.ctx, state.space, _Table(tuple(rest_slots), *table))


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
    """Every measure from the one cut_spectra decomposition of the state.

    Site i's density spectrum is the square of cut (i,)'s Schmidt values,
    zero-padded to d_i, and its purity is the sum of that spectrum squared;
    a one-site state is pure.  A zero state raises ValueError.
    """
    if state.nsites < 2:
        state.normalized()  # raises on the zero state, as cut_spectra does on more sites
    cuts = cut_spectra(state)
    spectra = []
    for i, d in enumerate(state.dims):
        spec = [s * s for s in cuts.get((i,), [1.0])]
        spectra.append(spec + [0.0] * (d - len(spec)))
    max_ent = all(
        all(abs(lam - 1.0 / d) <= tol for lam in spec)
        for spec, d in zip(spectra, state.dims)
    )
    purities = [sum(lam * lam for lam in spec) for spec in spectra]
    if all(d == 2 for d in state.dims):
        purity, kind = _qubit_average(purities), "qubit-average"
    else:
        purity, kind = _linear_entropy(state.dims, purities), "linear-entropy"
    return EntanglementReport(purity, kind, spectra, cuts, max_ent)


def is_maximally_entangled(
    state: PlainState, tol: float = DEFAULT_TOL
) -> tuple[bool, EntanglementReport]:
    """True iff every single-site reduced density matrix is maximally mixed."""
    report = entanglement_report(state, tol=tol)
    return report.max_entangled, report


# -- weight solver ------------------------------------------------------------


@dataclass
class WeightSolution:
    """Minimum-norm least-squares weight for an integral synthesis problem.

    residual is |A x - b| over the join's entries and the target's rows;
    rank counts the singular values kept, block by block, each block under
    its own cutoff (every nonzero one-column block counts one).
    """

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
    """Min-norm least squares for A[rows, cols] = vals, block by block, never building A.

    Each (row, column) appears at most once.  Columns that share a row form
    one block (union-find over the shared rows); the min-norm solution,
    residual and spectrum of A are those of its blocks together.  A
    one-column block c keeps every nonzero column, with x = (<c, b> / |c|) / |c|
    (|c|**2 underflows on the 1/k! columns of large grades) and singular
    value |c|, batched over all such blocks.  A larger block gets its own
    SVD and zeroes the values below eps * max(its shape) * its largest
    value.  A column without rows gets x = 0 and no value.  rank counts the
    values kept; the values come back sorted descending, padded with zeros
    to min(M, N), as lstsq's.
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
    dot = _sum_by(cols, vals.conj() * rhs[rows], n)
    values = [norm[single & (np.bincount(cols, minlength=n) > 0)]]
    x = np.zeros(n, dtype=complex)
    keep = single & (norm > 0)
    x[keep] = dot[keep] / norm[keep] / norm[keep]
    rank = int(np.sum(keep))
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
            kept = s > np.finfo(float).eps * max(a.shape) * s[0]
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
            x[block_cols] = vh.conj().T @ ((u.conj().T @ rhs[block_rows]) * inv)
            rank += int(np.sum(kept))
            values.append(s)

    values = np.sort(np.concatenate(values))[::-1]
    padded = np.zeros(min(m, n))
    padded[: len(values)] = values
    return x, rank, padded


def solve_weight(
    state: GradedState,
    differentials: Sequence[Variable],
    target: PlainState,
    basis: Sequence[Monomial],
    tol: float = DEFAULT_TOL,
) -> WeightSolution:
    """Solve min || integrate(w * state) - target || over weights on the basis.

    Column j is integral(basis[j] * state); all columns come from one
    array join (_join) over the basis, in which a basis monomial w meets
    only the state terms with w_d + m_d = n-1 on every differential d.
    Rows cover every term the candidate weights can produce, including
    residual Grassmann terms (targeted to zero), so feasibility demands a
    clean Grassmann-free match.  The least-squares step is _block_lstsq:
    one block per set of columns that share rows, each under its own
    cutoff, so rank counts the values kept block by block and
    singular_values holds every block's values.  The dense matrix is never
    built.  The residual is |A x - b| over the join's own entries and the
    target rows no column reaches.  Every basis exponent must lie in
    1..n-1 and the differentials must be distinct, and a residual that
    overflows to inf or nan raises ValueError too.
    """
    if not basis:
        raise ValueError("empty weight basis")
    ctx = state.ctx
    if any(not 1 <= e < ctx.n for m in basis for _, e in m.exps):
        raise ValueError(f"basis exponents must lie in 1..{ctx.n - 1}")
    if target.dims != state.space.dims:
        raise ValueError("target dimensions do not match the state")
    differentials = tuple(differentials)
    _check_distinct(differentials)

    rest, _, ket, cols, vals = _join([(m, 1.0) for m in basis], differentials, state)
    # rows: the (monomial, ket) keys of the join's entries and of the target's
    # nonzero amplitudes, kets by flat index; within a column every entry has
    # its own key, as removing the differential blocks is injective
    want = np.flatnonzero(target.amps)
    keys = np.zeros((len(cols) + len(want), rest.shape[1] + 1), dtype=np.int64)
    keys[: len(cols), :-1] = rest
    keys[: len(cols), -1] = np.ravel_multi_index(ket.T, target.dims)
    keys[len(cols) :, -1] = want
    radices = [ctx.n] * rest.shape[1] + [target.amps.size]
    uniq, row = np.unique(_row_keys(keys, radices), return_inverse=True)
    rows = row[: len(cols)]
    rhs = np.zeros(len(uniq), dtype=complex)
    rhs[row[len(cols) :]] = target.amps[want]

    x, rank, singular_values = _block_lstsq(rows, cols, vals, rhs, (len(uniq), len(basis)))
    terms: dict[Monomial, complex] = {}
    for m, c in zip(basis, x):  # a repeated basis monomial sums its columns
        terms[m] = terms.get(m, 0.0) + c
    residual = float(np.linalg.norm(_sum_by(rows, vals * x[cols], len(rhs)) - rhs))
    if not np.isfinite(residual):
        raise ValueError(f"the solve overflowed (residual {residual}); scale it down")

    return WeightSolution(
        weight=AlgebraElement(ctx, terms),
        residual=residual,
        feasible=residual < tol,
        basis=tuple(basis),
        rank=rank,
        coefficients=x,
        singular_values=singular_values,
    )
