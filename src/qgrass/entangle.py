"""Weight-integral pipeline, entanglement measures and the weight solver.

The central operation multiplies a Grassmann weight function onto a
product of graded states from the left and Berezin-integrates the listed
variables (rightmost differential first).  Since integral d(theta)
theta**e = delta(e, n-1), a weight monomial w and a state term m|k> only
contribute when w_d + m_d = n-1 on every differential slot d, so the
product and the integrals run as one join on the differential exponents
and the dead pairs are never multiplied.  The join reads only the state's
term table (qstate: one row of exponents over the canonical slots per
term, with its coefficient and ket digits, kets ascending), so no state is
boxed into per-ket algebra elements, and integrate_graded returns such a
table, kets ascending.  _integrate takes the factors of the product
instead, and folds them with the weight's differential exponents as a
prune (qstate._fold): a row that no weight term completes is dropped as
soon as its differential exponents are final, and the full product is
never built.
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
only, as small matrices stacked by shape into a few batched SVDs
(_spectra, which takes any list of cuts and decomposes each bipartition
once, from its side that holds site 0; the side masks, place values and
axis ranks take a fixed handful of array passes per call, whatever the
number of cuts).  entanglement_report runs that
decomposition on the single-site cuts alone, which is all its measures
read: a site's density spectrum is its cut's Schmidt values squared.  Its
bipartition_schmidt, every cut's spectrum, is cut_spectra of the state it
was given, decomposed on first read.
The dense routines (reduced_density, DensityMatrix, bipartition_spectrum,
purity_viola, purity_linear) are single-state API and the tests'
independent references.

solve_weight inverts the pipeline: it assembles the linear map from
weight coefficients on a monomial basis to integrated amplitudes in one
join over the whole basis and returns the minimum-norm least-squares
weight, with the residual formed from the join's own entries.  The full
basis is a MonomialBasis, an int64 exponent table; a basis monomial is
boxed only when read, and the solve reads only those of the weight's
nonzero terms, in bulk, from one tolist of x's nonzero entries and one of
their basis rows.  On the grid basis every catalog solve uses (every
exponent 0..n-1 on exactly the differentials) each state term meets one
column, whose index the join computes; any other basis is sort-merged.
The map is block diagonal up to a permutation (columns sharing a row form
a block), so it is solved block by block, each block under its own
cutoff, and never stored densely.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import AlgebraElement, Monomial, Variable
from .qstate import (
    GradedState,
    PlainState,
    _Table,
    _exponents,
    _fold,
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
    wslots: Sequence[Variable],
    wexps: np.ndarray,
    wcoef: np.ndarray,
    differentials: Sequence[Variable],
    state: GradedState,
    grid: bool = False,
):
    """Every surviving (weight term, state term) pair of integral(weight * state).

    The weight is a table: term i is wcoef[i] times the monomial with
    exponents wexps[i] (each in 0..n-1) on the sorted variables wslots.
    Returns (rest, rest_slots, ket, term, value): pair i leaves value[i]
    times the monomial with exponents rest[i] on rest_slots, on the ket
    with digits ket[i], from weight term term[i].  Pairs run state term by
    state term (the rows of the state's term table, so kets ascending),
    weight terms in order.

    Both tables are read over the canonical slots, the sorted union of the
    state table's slots, wslots and the differentials.  A state term m
    meets the weight terms w with w_d = n-1-m_d on every differential d,
    and a pair survives when every summed exponent is below n.  On a grid
    weight (a MonomialBasis whose slots are the differentials, every
    exponent 0..n-1, product order) m meets exactly one term, at index
    (n-1-m).place over the sorted differentials, and the pair survives, as
    every differential sums to n-1 and every other slot keeps m's own
    exponent: the index join reads that index and never widens the table.
    Any other weight is matched by sort plus searchsorted, any number of w
    per key.  A pair's q-exponent is

        -m.U.w  +  (n-1) * P.p,     P = m + w,

    with U[y, x] = eps(y, x) for slots y < x and 0 elsewhere (the phase of
    monomial_product), and p[u] the sum of U[u, d] over the differentials
    d integrated while u's block is still present, rightmost differential
    first (the phase of integrate_monomial).  U and p are reduced mod n.
    U.w is not: the q-exponent is read mod n, and m.U.w stays below
    K**2 * n**3.
    """
    n = state.ctx.n
    table = state._table
    slots = sorted(set(table.slots).union(differentials, wslots))
    slot_of = {v: i for i, v in enumerate(slots)}
    if len(slots) > len(table.slots):
        exps = _widened(table.slots, table.exps, slot_of, len(slots))
    else:
        exps = table.exps
    diff = [slot_of[d] for d in differentials]
    eps = _upper_eps(state.ctx, slots)

    if grid:
        si = slice(None)  # every state term once, in order
        paired = np.zeros_like(exps)  # the weight term each state term meets, widened
        paired[:, diff] = n - 1 - exps[:, diff]
        wi = paired[:, sorted(diff)] @ n ** np.arange(len(diff) - 1, -1, -1, dtype=np.int64)
        total = exps + paired
        wu = paired @ eps.T
    else:
        if len(slots) > len(wslots):
            wexps = _widened(wslots, wexps, slot_of, len(slots))
        keys = _row_keys(
            np.concatenate([n - 1 - exps[:, diff], wexps[:, diff]]), [n] * len(diff)
        )
        skey, wkey = keys[: len(exps)], keys[len(exps) :]
        order = wkey.argsort(kind="stable")
        wkey = wkey[order]
        lo = wkey.searchsorted(skey)
        count = wkey.searchsorted(skey, "right") - lo
        si = np.arange(len(exps)).repeat(count)
        wi = order[np.arange(len(si)) + (lo + count - count.cumsum()).repeat(count)]
        total = exps[si] + wexps[wi]
        alive = np.logical_and.reduce(total < n, axis=1)
        si, wi, total = si[alive], wi[alive], total[alive]
        wu = (wexps @ eps.T)[wi]

    # (n-1) * p[u], with p[u] the sum of U[u, d] over the differentials d
    # after u's own position (every one for a u that is not integrated)
    after = dict(zip(diff, range(1, len(diff) + 1)))
    p = [(n - 1) * (sum(map(row.__getitem__, diff[after.get(u, 0) :])) % n)
         for u, row in enumerate(eps.tolist())]
    qexp = total @ np.array(p, dtype=np.int64) - (exps[si] * wu).sum(axis=1)
    value = wcoef[wi] * table.coef[si] * _roots(n)[qexp % n]

    rest = sorted(set(range(len(slots))).difference(diff))
    return total[:, rest], [slots[i] for i in rest], table.digits[si], wi, value


def integrate_graded(spec: IntegralSpec, state: GradedState) -> GradedState:
    """weight * state, integrated right-to-left; may retain Grassmann terms.

    Equals state.left_multiply(weight).multi_integrate(differentials), but
    only pairs with w_d + m_d = n-1 on every differential d are multiplied
    (_join, on the weight's exponent table from _exponents), and the pairs
    that leave one (monomial, ket) are summed into a term table (_summed),
    kets ascending.  Every weight exponent must lie in 1..n-1; an overflow
    raises ValueError.  This is _integrate(spec, (state,)).
    """
    return _integrate(spec, (state,))


def _integrate(spec: IntegralSpec, factors: Sequence[GradedState]) -> GradedState:
    """integrate_graded(spec, tensor(factors)), bitwise, without the rows of
    the product that no weight term completes.

    The weight is tabulated once; the factors are folded with that table as
    the prune (qstate._fold), which drops a row as soon as its finished
    differential exponents match no weight term, and the kept rows run
    through the same _join and _summed; an overflow raises ValueError.
    """
    ctx = factors[0].ctx
    if spec.weight.ctx != ctx:
        raise ValueError("weight and state use different algebra contexts")
    n = ctx.n
    terms = spec.weight.terms
    wslots, wexps = _exponents(n, list(terms))
    wcoef = np.fromiter(terms.values(), complex, len(terms))
    diffs = spec.differentials
    union = sorted(set(wslots).union(diffs))
    slot_of = {v: i for i, v in enumerate(union)}
    dexps = _widened(wslots, wexps, slot_of, len(union))[:, [slot_of[d] for d in diffs]]
    # an overflow is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        state = _fold(factors, (diffs, dexps))
        rest, rest_slots, digits, _, value = _join(wslots, wexps, wcoef, diffs, state)
        table = _summed(n, rest, value, digits, state.space.dims)
    if not np.isfinite(table[1]).all():
        raise ValueError("the weight integral overflowed; scale the weight or the factors down")
    return GradedState._from_table(ctx, state.space, _Table(tuple(rest_slots), *table))


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
    da = math.prod(state.dims[k] for k in cut)
    matrix = np.transpose(psi, cut + rest).reshape(da, -1)
    s = np.linalg.svd(matrix, compute_uv=False)
    nrm = np.linalg.norm(s)
    return s / nrm


def schmidt_rank(spectrum: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    return int(np.sum(np.asarray(spectrum) > tol))


@dataclass
class EntanglementReport:
    """Per-site spectra, the aggregate purity and every cut's Schmidt data.

    entanglement_report decomposes only the single-site cuts.
    bipartition_schmidt, cut_spectra of the state the report was given, is
    decomposed on first read and cached.
    """

    purity: float
    purity_kind: str
    rdm_spectra: list[list[float]]
    max_entangled: bool
    _state: PlainState = field(repr=False, compare=False)

    @functools.cached_property
    def bipartition_schmidt(self) -> dict[tuple[int, ...], list[float]]:
        return cut_spectra(self._state)


# entries per stacked SVD: bounds the memory a large dense state needs
_STACK_ENTRIES = 1 << 16


def cut_spectra(state: PlainState) -> dict[tuple[int, ...], list[float]]:
    """Schmidt spectrum of every proper cut, keyed by the cut's sites.

    Keys run by cut size, then lexicographically.  A cut and its complement
    share one list, as _spectra decomposes each bipartition once.  Each
    list has min(d_cut, d_rest) values, descending and of unit norm, like
    bipartition_spectrum.
    """
    sites = range(state.nsites)
    cuts = [c for r in range(1, state.nsites) for c in itertools.combinations(sites, r)]
    return dict(zip(cuts, _spectra(state.normalized(), cuts)))


def _spectra(unit: PlainState, cuts: Sequence[tuple[int, ...]]) -> list[list[float]]:
    """Schmidt spectrum across each listed cut (a nonempty tuple of sites) of
    a normalized state.

    A bipartition has one spectrum whichever side is listed, so each cut
    stands for its side that holds site 0, named by its bit mask, each
    distinct side is decomposed once, and a cut and its complement get the
    same list.  Only the state's K nonzero amplitudes enter.  The masks
    come from one bitwise-or reduction over the listed sites, and every
    side's sites, its complement's, their C-order place values and the
    sides' lengths from a few passes over one side x site array; one
    matrix product of the amplitudes' digits with the place values gives
    each amplitude's row key (its digits on the larger side) and column
    key (the smaller side) for every side at once; on a tie the site-0
    side takes the rows.  A matrix is min(K, d_large) x min(K, d_small):
    an axis longer than K is indexed by the rank of its key instead
    (_axis_index), which only drops zero rows or columns, so the nonzero
    singular values are those of the full matrix; the spectrum is padded
    with 0.0.  Sides with the same matrix shape are decomposed in one
    stacked SVD, and each matrix depends only on its own bipartition, so a
    cut's values do not depend on which other cuts are listed.
    """
    dims = unit.dims
    psi = unit.amps
    support = psi.nonzero()[0]
    amps, nsupp = psi[support], len(support)

    # a side's bit mask names it: int64 holds 62 sites, and a state on 63
    # would need 2**63 amplitudes
    bits = 1 << np.arange(len(dims), dtype=np.int64)
    starts = list(itertools.accumulate(map(len, cuts), initial=0))
    sites = np.fromiter(itertools.chain.from_iterable(cuts), np.intp, starts[-1])
    masks = np.bitwise_or.reduceat(bits[sites], starts[:-1]) if cuts else bits[:0]
    masks = np.where(masks & 1, masks, masks ^ bits.sum()).tolist()
    sides = list(dict.fromkeys(masks))
    # each side's sites, then its complement's; C-order place values of each
    # site within its part, and each part's length
    on = (np.array(sides, dtype=np.int64)[:, None] & bits) != 0
    on = np.concatenate([on, ~on])
    factors = np.where(on, dims, 1)
    tail = factors[:, ::-1].cumprod(axis=1)[:, ::-1]  # product over sites >= s
    length = tail[:, 0].tolist()
    # keys are integers below 2**53, so BLAS float64 products give them exactly
    digits = np.stack(np.unravel_index(support, dims), axis=1).astype(float)  # K x S
    keys = digits @ np.where(on, tail // factors, 0).T.astype(float)

    # rows take the larger part: a transpose keeps the spectrum, and numpy's
    # SVD is faster on tall matrices.  da * db is the state's size, so a
    # group's sides share da and db, and _axis_index takes the same path
    # for each of them
    groups: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for j in range(len(sides)):  # (side, its row keys' column, its column keys')
        r, c = (j, j + len(sides)) if length[j] ** 2 >= psi.size else (j + len(sides), j)
        groups.setdefault((min(length[r], nsupp), min(length[c], nsupp), length[c]),
                          []).append((j, r, c))
    spectra: dict[int, list[float]] = {}  # side mask -> its spectrum
    for (rows, cols, db), members in groups.items():
        da = psi.size // db
        step = max(1, _STACK_ENTRIES // (rows * cols))
        for lo in range(0, len(members), step):
            idx, r, c = np.array(members[lo : lo + step]).T
            rkeys = _axis_index(keys[:, r], da, nsupp)
            ckeys = _axis_index(keys[:, c], db, nsupp)
            stack = np.zeros((len(idx), rows * cols), dtype=complex)
            stack[np.arange(len(idx))[:, None], (rkeys * cols + ckeys).T] = amps
            s = np.linalg.svd(stack.reshape(-1, rows, cols), compute_uv=False)
            s = s / np.linalg.norm(s, axis=1, keepdims=True)
            pad = [0.0] * (db - s.shape[1])
            for j, row in zip(idx.tolist(), s.tolist()):
                spectra[sides[j]] = row + pad
    return [spectra[mask] for mask in masks]


def _axis_index(keys: np.ndarray, length: int, nsupp: int) -> np.ndarray:
    """Matrix index of each key (K x cuts, every cut's axis of the given
    length): the key itself when the axis is at most K long, else the
    key's rank among its cut's distinct keys, from one sort per column."""
    keys = keys.astype(np.int64)
    if length <= nsupp:
        return keys
    order = keys.argsort(axis=0)
    cols = np.arange(keys.shape[1])
    ranked = keys[order, cols]
    step = np.zeros(keys.shape, dtype=np.int64)
    step[1:] = ranked[1:] != ranked[:-1]  # 1 where a new key starts
    rank = np.empty_like(step)
    rank[order, cols] = step.cumsum(axis=0)
    return rank


def entanglement_report(state: PlainState, tol: float = DEFAULT_TOL) -> EntanglementReport:
    """Per-site spectra, purity and the MES test from the single-site cuts.

    Site i's density spectrum is the square of cut (i,)'s Schmidt values
    (_spectra over the single-site cuts only), zero-padded to d_i, and its
    purity is the sum of that spectrum squared; the two sites of a
    two-site state are one bipartition, decomposed once, and a one-site
    state is pure.  The other cuts are decomposed when bipartition_schmidt
    is first read.  A zero state raises ValueError.
    """
    nsites = state.nsites
    unit = state.normalized()
    schmidt = _spectra(unit, [(i,) for i in range(nsites)]) if nsites > 1 else [[1.0]]
    spectra = []
    for values, d in zip(schmidt, state.dims):
        spec = [s * s for s in values]
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
    return EntanglementReport(purity, kind, spectra, max_ent, state)


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
    its own cutoff (every nonzero one-column block counts one).  basis is
    the MonomialBasis solved on, or a tuple of the monomials given; weight
    holds the basis monomials whose coefficient is nonzero, and only those
    are boxed.
    """

    weight: AlgebraElement
    residual: float
    feasible: bool
    basis: Sequence[Monomial]
    rank: int
    coefficients: np.ndarray = field(repr=False, default=None)
    # every block's values, descending, zero-padded to min(rows, basis) as lstsq
    singular_values: np.ndarray = field(repr=False, default=None)


class MonomialBasis(Sequence[Monomial]):
    """All products of powers 0..max_exponent (default n-1) of the variables.

    An exponent table, not a list: slots holds the variables sorted, radix
    is max_exponent + 1 (0 for a negative one), and exps the
    radix**len(slots) x len(slots) int64 exponents, one row per monomial in
    itertools.product order (the last variable counts fastest), so row i
    holds the digits of i in base radix.  len reads the table; indexing and
    iteration box a row into a Monomial on first read and keep it.  Every
    read boxes through _box, which takes the rows not yet read from one
    tolist (a slice, iteration and solve_weight's read of the weight pass
    many rows at once), and a row read before returns its kept object.  A
    negative max_exponent gives no monomials over one or more variables,
    and the monomial 1 over none.
    """

    def __init__(
        self, ctx, variables: Iterable[Variable], max_exponent: int | None = None
    ) -> None:
        top = ctx.n - 1 if max_exponent is None else max_exponent
        self.slots = tuple(sorted(set(variables)))
        self.radix, width = max(top + 1, 0), len(self.slots)
        place = self.radix ** np.arange(width - 1, -1, -1, dtype=np.int64)
        self.exps = np.arange(self.radix**width, dtype=np.int64)[:, None] // place % self.radix
        self._boxed: dict[int, Monomial] = {}

    def __len__(self) -> int:
        return len(self.exps)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self._box(range(len(self))))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._box(range(*i.indices(len(self))))
        i = range(len(self))[i]  # a negative i counts from the end
        mono = self._boxed.get(i)
        return self._box([i])[0] if mono is None else mono

    def _box(self, idx: Sequence[int]) -> list[Monomial]:
        """The monomials of the distinct rows idx (each in 0..len-1), in order:
        the rows not yet read are boxed from one tolist and kept, and a row
        read before returns its kept object."""
        boxed, slots = self._boxed, self.slots
        new = [i for i in idx if i not in boxed]
        for i, row in zip(new, self.exps[new].tolist()):
            boxed[i] = Monomial(itertools.compress(zip(slots, row), row))
        return [boxed[i] for i in idx]


def _column_norms(cols: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """|c| = sqrt(sum |v|**2) of each of n columns, without squaring out of range.

    The 1/sqrt(j! k!) entries of large grades square to subnormals or 0
    (from j = k = 101 on), and huge entries to inf.  Each column is scaled
    by the power of two that brings its largest |v| into [1/2, 1) before
    squaring, and its norm scaled back.  Both steps are exact, except on
    entries below 2**-1021 of their column's largest, whose squares are
    lost beside its square in any case.
    """
    mag = np.abs(vals)
    top = np.zeros(n)
    np.fmax.at(top, cols, mag)
    _, e = np.frexp(top)
    return np.ldexp(np.sqrt(np.bincount(cols, np.ldexp(mag, -e[cols]) ** 2, minlength=n)), e)


def _block_lstsq(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, int, np.ndarray]:
    """Min-norm least squares for A[rows, cols] = vals, block by block, never building A.

    Each (row, column) appears at most once.  Columns that share a row form
    one block (union-find over the shared rows); the min-norm solution,
    residual and spectrum of A are those of its blocks together.  A
    one-column block c keeps every nonzero column, with x = (<c, b> / |c|) / |c|
    (|c|**2 underflows on the 1/k! columns of large grades) and singular
    value |c| (_column_norms), batched over all such blocks.  A larger block
    gets its own SVD and zeroes the values below eps * max(its shape) * its
    largest value; a cutoff relative to the block needs no rescaling, as
    LAPACK rescales a block whose entries lie near the ends of the float
    range.  A column without rows gets x = 0 and no value.  rank counts the
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
    root = np.arange(n)  # only a column with a shared row can have another root
    linked = np.flatnonzero(np.bincount(cols[shared], minlength=n))
    root[linked] = [find(j) for j in linked.tolist()]
    single = np.bincount(root, minlength=n)[root] == 1

    norm = _column_norms(cols, vals, n)
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
    only the state terms with w_d + m_d = n-1 on every differential d.  A
    MonomialBasis of radix n over exactly the differentials is the grid
    that the index join reads: each state term's one column is computed,
    not searched for.  Any other basis (a listed one, a max_exponent below
    n-1, other variables) runs the sort-merge join.
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

    A MonomialBasis enters the join as its exponent table, which is
    scanned for exponents >= n only when its radix exceeds n; any other
    iterable is read once into a tuple, before the emptiness check, and
    tabulated once (_exponents), a repeated monomial getting a column each.
    The weight reads the nonzero entries of x at once (one flatnonzero,
    one tolist), a zero part written as 0.0, never -0.0.  A MonomialBasis
    boxes their rows in bulk (MonomialBasis._box) and, its rows being
    distinct, zips them with the values into the weight's dict; a listed
    basis sums a repeated monomial's columns in column order.  Either dict
    holds nonzero complex values only and is adopted as it is
    (AlgebraElement._adopt).
    """
    if not isinstance(basis, MonomialBasis):
        basis = tuple(basis)  # an iterator is read once, before the emptiness check
    if not basis:
        raise ValueError("empty weight basis")
    ctx = state.ctx
    if target.dims != state.space.dims:
        raise ValueError("target dimensions do not match the state")
    differentials = tuple(differentials)
    _check_distinct(differentials)
    grid = False
    if isinstance(basis, MonomialBasis):
        wslots, wexps = basis.slots, basis.exps
        if basis.radix > ctx.n:  # only then can a row hold an exponent >= n
            bad = np.flatnonzero((wexps >= ctx.n).any(axis=1))
            if len(bad):  # raises on the first bad row's first exponent, as on a list
                _exponents(ctx.n, [basis[bad[0]]])
        grid = basis.radix == ctx.n and set(wslots) == set(differentials)
    else:
        wslots, wexps = _exponents(ctx.n, basis)

    # an overflow is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        rest, _, ket, cols, vals = _join(
            wslots, wexps, np.ones(len(basis), complex), differentials, state, grid
        )
        # rows: the (monomial, ket) keys of the join's entries and of the
        # target's nonzero amplitudes, kets by flat index; within a column
        # every entry has its own key, as removing the differential blocks
        # is injective
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
        residual = float(np.linalg.norm(_sum_by(rows, vals * x[cols], len(rhs)) - rhs))
    # a zero column adds no term; adding 0.0 writes a zero part as 0.0, never -0.0
    nonzero = np.flatnonzero(x)
    values = (x[nonzero] + 0.0).tolist()
    if isinstance(basis, MonomialBasis):
        # distinct rows: one hash per monomial
        terms = dict(zip(basis._box(nonzero.tolist()), values))
    else:
        terms = {}
        for m, c in zip([basis[j] for j in nonzero.tolist()], values):
            # one hash per new monomial; a repeated one sums its columns, in order
            if terms.setdefault(m, c) is not c:
                terms[m] += c
    if not np.isfinite(residual):
        raise ValueError(f"the solve overflowed (residual {residual}); scale it down")

    return WeightSolution(
        weight=AlgebraElement._adopt(ctx, terms),
        residual=residual,
        feasible=residual < tol,
        basis=basis,
        rank=rank,
        coefficients=x,
        singular_values=singular_values,
    )
