"""Multi-qudit kets coupled to the graded Grassmann algebra.

A GradedState is a sum over basis kets k of f_k(theta)|k>, with the
monomials to the LEFT of the ket.  Its one store is the term table, built
by every constructor and never mutated: the canonical slots (sorted
Variables), a T x K int64 exponent array over them, a complex coefficient
per row and its ket's int64 flat index, the C-order index PlainState.amps
uses.  Its one form: kets ascending, exponents in 0..n-1 (0: the slot is
absent), no coefficient exactly zero and no (monomial, ket) pair repeated.
tensor, the weight join (entangle) and the one-site builders (coherent_state,
squeezed_state_exp) build and read only tables; _exponents is where
monomials become rows and _summed adds equal (monomial, ket) rows (rows
whose keys already ascend strictly are left ungrouped).  The fold behind
tensor and the weight integral (_fold) forms everything that depends on
one factor alone once per call, on the factors' tables stacked into one
array (_stacked), so each fold step does only the pair work; the roots of
unity it reads are one read-only array per grade (_roots).
``parts`` is a read-only view, one nonzero AlgebraElement per ket, kets
ascending, boxed from the table on first read.  The remaining state
operations (sums, scalar and left multiples, integrals, the annihilation
operator) are AlgebraElement operations applied ket by ket, whose result
is tabulated at once.

Moving a variable across a ket uses the quantization relation

    theta     |m> = q**(m-1)      |m> theta
    theta_bar |m> = conj(q)**(m-1)|m> theta_bar

(the barred relation follows by Hermitian conjugation of the bra rule).
A monomial of unbarred degree u and barred degree b therefore crosses
kets with a phase q**(k*(u-b)), so quantization is a grading twist of the
algebra element by one integer k.  quantize_exponent gives the q-exponent
of the left-to-right relation; tensor pulls a later factor's terms
leftwards across the earlier kets with the conjugate twist.

The module also provides the d-level ladder matrices b, b_dag and their
q-commutator closures, plus the coherent / squeezed state builders.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import (
    CMP_TOL,
    AlgebraContext,
    AlgebraElement,
    Monomial,
    MONOMIAL_ONE,
    Variable,
    q_power,
)

BasisKet = tuple[int, ...]


@dataclass(frozen=True)
class LevelSpace:
    """Per-site level counts d_k >= 2."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d < 2 for d in self.dims):
            raise ValueError(f"every site needs >= 2 levels, got {self.dims}")

    @property
    def nsites(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def check_ket(self, ket: BasisKet) -> None:
        _check_ket(ket, self.dims)


def _check_ket(ket: BasisKet, dims: tuple[int, ...]) -> None:
    if len(ket) != len(dims) or any(not (0 <= m < d) for m, d in zip(ket, dims)):
        raise ValueError(f"ket {ket} out of range for dims {dims}")


def quantize_exponent(mono: Monomial, ket: BasisKet) -> int:
    """Integer e with  mono |ket> = q**e |ket> mono.

    Each unbarred power k crossing a site at level m contributes (m-1)*k;
    barred powers contribute -(m-1)*k.
    """
    unbarred, barred = mono.degree_split()
    weight = unbarred - barred
    return sum((m - 1) for m in ket) * weight


def _twist(f: AlgebraElement, k: int) -> AlgebraElement:
    """Grading twist: every term of f times q**(k*(unbarred - barred)).

    f|ket> = |ket> _twist(f, sum(m-1 over ket)), and b f = _twist(f, 1) b.
    """
    n = f.ctx.n
    out = {}
    for mono, c in f.terms.items():
        unbarred, barred = mono.degree_split()
        out[mono] = c * q_power(n, k * (unbarred - barred))
    return AlgebraElement(f.ctx, out)


class _Table(NamedTuple):
    """The term table of a GradedState (see the module docstring)."""

    slots: tuple[Variable, ...]
    exps: np.ndarray  # T x K int64, column c the exponent of slots[c]
    coef: np.ndarray  # T complex
    kets: np.ndarray  # T int64, the ket of each row as its C-order flat index


def _exponents(n: int, monos: Sequence[Monomial]) -> tuple[tuple[Variable, ...], np.ndarray]:
    """(slots, exps): the sorted variables of monos, and the len(monos) x
    len(slots) int64 table whose row i holds monos[i]'s exponents.  The
    first block whose exponent lies outside 1..n-1 raises ValueError."""
    blocks = list(chain.from_iterable(monos))
    power = np.array([e for _, e in blocks])  # an int beyond int64 stays a Python int
    bad = np.flatnonzero((power < 1) | (power >= n))
    if len(bad):
        v, e = blocks[bad[0]]
        raise ValueError(f"exponent {e} of {v.name} lies outside 1..{n - 1}")
    slots = tuple(sorted({v for v, _ in blocks}))
    slot_of = {v: i for i, v in enumerate(slots)}
    exps = np.zeros((len(monos), len(slots)), dtype=np.int64)
    exps[[i for i, mono in enumerate(monos) for _ in mono], [slot_of[v] for v, _ in blocks]] = power
    return slots, exps


def _places(dims: Sequence[int]) -> np.ndarray:
    """C-order place values: a ket's flat index is its digits times these.  A
    term table keys kets by that int64 index, which a space of 2**63 kets or
    more does not have: such dims raise ValueError."""
    size = math.prod(dims)
    if size >= 1 << 63:
        raise ValueError(f"{len(dims)} sites span {size} kets, past the int64 flat ket index "
                         "of a term table (fewer than 2**63 kets)")
    return np.array([math.prod(dims[i + 1 :]) for i in range(len(dims))], dtype=np.int64)


def _tabulate(n: int, space: LevelSpace,
              parts: Mapping[BasisKet, Mapping[Monomial, complex]]) -> _Table:
    """The term table of per-ket terms at grade n: kets ascending, each ket's
    terms in order, exact zeros dropped unchecked; the kets of nonzero terms
    are checked against space and their monomials by _exponents, and a space
    without an int64 flat index raises ValueError (_places)."""
    monos: list[Monomial] = []
    coef: list[complex] = []
    kets: list[BasisKet] = []
    for ket in sorted(parts):
        terms = {m: complex(c) for m, c in parts[ket].items() if c != 0}
        if terms:
            space.check_ket(ket)
            monos += terms
            coef += terms.values()
            kets += [ket] * len(terms)
    slots, exps = _exponents(n, monos)
    digits = np.array(kets, dtype=np.int64).reshape(len(kets), space.nsites)
    return _Table(slots, exps, np.array(coef, dtype=complex), digits @ _places(space.dims))


def _boxed(ctx: AlgebraContext, dims: Sequence[int],
           table: _Table) -> dict[BasisKet, AlgebraElement]:
    """The per-ket view of a term table on dims; each distinct ket is unravelled once."""
    slots = table.slots
    grouped: dict[int, dict[Monomial, complex]] = {}
    for row, c, ket in zip(table.exps.tolist(), table.coef.tolist(), table.kets.tolist()):
        terms = grouped.get(ket)
        if terms is None:
            terms = grouped[ket] = {}
        terms[Monomial(compress(zip(slots, row), row))] = c
    digits = np.fromiter(grouped, np.int64, len(grouped))[:, None] // _places(dims) % dims
    return {tuple(k): AlgebraElement(ctx, t) for k, t in zip(digits.tolist(), grouped.values())}


def _row_keys(rows: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """One int64 per row, equal exactly for equal rows; column c holds 0..radices[c]-1.

    Rows pack in mixed radix, the last column most significant, when the
    radices' product (in Python integers) stays below 2**63; otherwise a
    row's key is its rank among the distinct rows in that same order.
    """
    place, size = [], 1
    for r in radices:
        place.append(size)
        size *= r
    if size < 1 << 63:
        return rows @ np.array(place, dtype=np.int64)
    return np.unique(rows[:, ::-1], axis=0, return_inverse=True)[1].reshape(-1)


def _sum_by(group: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of values per group, added in index order."""
    return np.bincount(group, values.real, size) + 1j * np.bincount(group, values.imag, size)


def _summed(n: int, exps: np.ndarray, coef: np.ndarray, kets: np.ndarray,
            size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows with equal (exponents in 0..n-1, flat ket index below size) summed in row
    order, exact zeros dropped; out by ket, then by exponent row, ascending."""
    rows, coef = _sum_rows(n, exps, coef, kets, size)
    return exps[rows], coef, kets[rows]


def _sum_rows(n: int, exps: np.ndarray, coef: np.ndarray, kets: np.ndarray,
              size: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sums) of _summed: the first row of each group with a nonzero sum, and
    that sum.  Keys already strictly ascending need no grouping, as no two rows
    meet; each sum is then its one value plus 0.0, which writes a -0.0 part as
    0.0, as the summing bincount does."""
    keys = _row_keys(np.concatenate([exps[:, ::-1], kets[:, None]], axis=1),
                     [n] * exps.shape[1] + [size])
    if (keys[1:] > keys[:-1]).all():
        first, coef = np.arange(len(keys)), coef + 0.0
    else:
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        coef = _sum_by(group, coef, len(first))
    nonzero = coef != 0
    return first[nonzero], coef[nonzero]


@functools.lru_cache(maxsize=64)
def _upper_eps(ctx: AlgebraContext, slots: tuple[Variable, ...]) -> np.ndarray:
    """K x K int64 U mod n: U[y, x] = eps(slots[y], slots[x]) for y < x, else 0.

    Read from the context's phase table, so overrides count.  A block y**e
    moving left past a block x**f (y < x) collects -U[y, x]*e*f.  One
    read-only array per (context, slots), read by _stacked and entangle._frame.
    """
    n = ctx.n
    idx = np.arange(len(slots))
    eps = (idx[:, None] < idx).astype(np.int64)
    slot_of = {v: i for i, v in enumerate(slots)}
    for (a, b), e in ctx.phase_table.signed.items():
        y, x = slot_of.get(a), slot_of.get(b)
        if y is not None and x is not None and y < x:
            eps[y, x] = e % n
    eps.flags.writeable = False
    return eps


@functools.cache
def _roots(n: int) -> np.ndarray:
    """q**k for k = 0..n-1, each from q_power; one read-only array per grade."""
    roots = np.array([q_power(n, k) for k in range(n)])
    roots.flags.writeable = False
    return roots


class GradedState:
    """Sum over basis kets k of f_k|k>, stored as one term table.

    Built from flat {(Monomial, ket): coefficient} terms, from
    (element, ket) pairs, by tensor, by the weight integral and by the
    one-site builders; each builds its table at once, and the last three
    never box a Monomial.  ``parts`` maps each ket to its nonzero element and
    is boxed from the table on first read; ``terms`` is the flat view,
    rebuilt on every access.

    Each ket is held as its int64 flat index, so a space of 2**63 kets or
    more (63 qubit sites) has no table: building one, by a constructor or a
    tensor product, raises ValueError.
    """

    __slots__ = ("ctx", "space", "_parts", "_table")

    def __init__(
        self,
        ctx: AlgebraContext,
        space: LevelSpace,
        terms: Mapping[tuple[Monomial, BasisKet], complex],
    ):
        grouped: dict[BasisKet, dict[Monomial, complex]] = {}
        for (mono, ket), c in terms.items():
            grouped.setdefault(tuple(ket), {})[mono] = c
        self.ctx, self.space, self._parts = ctx, space, None
        self._table = _tabulate(ctx.n, space, grouped)

    @classmethod
    def _from_table(cls, ctx: AlgebraContext, space: LevelSpace, table: _Table) -> "GradedState":
        state = cls.__new__(cls)
        state.ctx, state.space, state._parts, state._table = ctx, space, None, table
        return state

    def _with(self, parts: Mapping[BasisKet, AlgebraElement]) -> "GradedState":
        table = _tabulate(self.ctx.n, self.space, {k: f.terms for k, f in parts.items()})
        return GradedState._from_table(self.ctx, self.space, table)

    @property
    def parts(self) -> dict[BasisKet, AlgebraElement]:
        """Each ket's nonzero element, kets ascending; boxed once, on first read."""
        if self._parts is None:
            self._parts = _boxed(self.ctx, self.space.dims, self._table)
        return self._parts

    @property
    def terms(self) -> dict[tuple[Monomial, BasisKet], complex]:
        return {(m, k): c for k, f in self.parts.items() for m, c in f.terms.items()}

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        ctx: AlgebraContext,
        space: LevelSpace,
        pairs: Iterable[tuple[AlgebraElement, BasisKet]],
    ) -> "GradedState":
        parts: dict[BasisKet, AlgebraElement] = {}
        for element, ket in pairs:  # the sum rejects an element of another context
            ket = tuple(ket)
            parts[ket] = parts.get(ket, ctx.zero()) + element
        return cls(ctx, space, {})._with(parts)

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "GradedState") -> "GradedState":
        if self.ctx != other.ctx or self.space != other.space:
            raise ValueError("cannot add states from different contexts/spaces")
        parts = dict(self.parts)
        for ket, f in other.parts.items():
            parts[ket] = parts[ket] + f if ket in parts else f
        return self._with(parts)

    def __sub__(self, other: "GradedState") -> "GradedState":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "GradedState":
        if not isinstance(scalar, (int, float, complex)):
            return NotImplemented  # an element times f_k would skip the ket's twist
        return self._with({k: f * scalar for k, f in self.parts.items()})

    __rmul__ = __mul__

    def left_multiply(self, w: AlgebraElement) -> "GradedState":
        """Multiply by an algebra element from the left: w * f_k on every ket."""
        if w.ctx != self.ctx:
            raise ValueError("weight and state use different algebra contexts")
        return self._with({k: w * f for k, f in self.parts.items()})

    # -- integration -------------------------------------------------------

    def multi_integrate(self, order: Sequence[Variable]) -> "GradedState":
        """Iterated integral on every ket; the differential written last acts first."""
        return self._with({k: f.multi_integrate(order) for k, f in self.parts.items()})

    # -- queries -----------------------------------------------------------

    def grassmann_part_norm(self) -> float:
        """Norm of the terms that still carry Grassmann content."""
        table = self._table
        return sum(abs(c) ** 2 for c in table.coef[table.exps.any(axis=1)].tolist()) ** 0.5

    def to_plain(self, tol: float = 1e-9) -> "PlainState":
        residual = self.grassmann_part_norm()
        if residual > tol:
            raise GrassmannResidueError(residual, self)
        return self.plain_projection()

    def plain_projection(self) -> "PlainState":
        """Grassmann-free part, discarding any residual monomial terms."""
        table = self._table
        plain = ~table.exps.any(axis=1)
        amps = np.zeros(self.space.size, dtype=complex)  # += turns a -0.0 part into 0.0
        amps[table.kets[plain]] += table.coef[plain]
        return PlainState(self.space.dims, amps)

    def _part(self, ket: BasisKet) -> AlgebraElement:
        return self.parts.get(tuple(ket)) or self.ctx.zero()

    def coefficient(self, mono: Monomial, ket: BasisKet) -> complex:
        return self._part(ket).coefficient(mono)

    def coefficient_of_word(self, blocks_or_vars, ket: BasisKet) -> complex:
        """Coefficient relative to an arbitrarily ordered monomial word."""
        return self._part(ket).coefficient_of_word(blocks_or_vars)

    def isclose(self, other: "GradedState", tol: float = CMP_TOL) -> bool:
        if not isinstance(other, GradedState):
            raise TypeError(f"cannot compare a graded state with {type(other).__name__}")
        keys = self.parts.keys() | other.parts.keys()
        return all(self._part(k).isclose(other._part(k), tol) for k in keys)

    def norm(self) -> float:
        return sum(f.norm() ** 2 for f in self.parts.values()) ** 0.5

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for (mono, ket) in sorted(terms, key=lambda mk: (mk[1], str(mk[0]))):
            ketstr = "".join(str(m) for m in ket)
            head = "" if mono == MONOMIAL_ONE else f"{mono}*"
            parts.append(f"({terms[mono, ket]:.6g})*{head}|{ketstr}>")
        return " + ".join(parts)


class GrassmannResidueError(ValueError):
    """Raised when an integral result still contains Grassmann monomials."""

    def __init__(self, residual: float, state: GradedState):
        self.residual = residual
        self.state = state
        super().__init__(
            f"integration left Grassmann content of norm {residual:.3e}; "
            "the differential list does not exhaust the state's variables"
        )


def tensor(states: Sequence[GradedState]) -> GradedState:
    """Tensor product with canonicalization, as one array fold over term
    tables: _fold(states), every row kept.  A coefficient past the float
    range raises ValueError."""
    return _fold(states)


def _fold(states: Sequence[GradedState],
          prune: tuple[Sequence[Variable], np.ndarray] | None = None) -> GradedState:
    """The tensor product of states, folded left to right over term tables.

    Each term a|ka> of the product so far meets each term b|kb> of the next
    factor: (a|ka>)(b|kb>) = q**e (a b)|ka kb>.  The exponent row of a b is
    the sum of a's and b's rows, and the pair dies when any sum reaches n.
    Its q-exponent is

        e = -b.U.a  -  S * (u - v),

    the reordering phase of monomial_product (U from _upper_eps, so phase
    table overrides count) plus the grading twist that pulls b leftwards
    across ka: S = sum(m-1 over ka), u and v the unbarred and barred
    degrees of b.

    Everything that depends on one factor alone is formed once, before the
    loop, on the factors' tables stacked into one int64 array (_stacked):
    a row holds the term's exponents over the canonical slots, its S over
    its own sites and its ket's share of the product's flat ket index.  So
    a pair's row is the sum of its two rows (exponents, S and flat index
    add), and every pair's e is one matrix product with the stacked rows'
    -(U.b, u - v).  A step then does only the pair work.  Rows run left
    factor major, so the product's kets stay ascending, and pairs reaching
    one (monomial, ket) are summed in pair order (_sum_rows, keyed on the
    whole product's flat index; only needed once a factor has a ket with
    several rows); exact zeros are dropped.  No Monomial or AlgebraElement
    is built.  A coefficient of a kept row past the float range raises
    ValueError, and so does a product of 2**63 kets or more, before anything
    is stacked.

    prune = (differentials, wexps), wexps[i, j] the exponent of
    differentials[j] in weight term i, keeps only the rows that some weight
    term can complete in the integral over the differentials (entangle's
    join): a row m with w_d = n-1-m_d on every differential d.  Once no
    later factor holds d, m_d is final, so at each step between the first
    and the last factor that finishes a differential, the pairs whose
    finished exponents no weight term complements are dropped with the
    dead ones (_pruning).  Kills and sums act on whole (monomial, ket)
    rows, and a row's finished exponents are those of the rows it came
    from, so every kept row carries the coefficient of the unpruned fold,
    summed in the same order.
    """
    if not states:
        raise ValueError("tensor of no states")
    ctx = states[0].ctx
    if any(s.ctx != ctx for s in states):
        raise ValueError("tensor factors use different algebra contexts")
    if len(states) == 1:
        return states[0]
    n = ctx.n
    tables = [s._table for s in states]
    slots = tuple(sorted(set().union(*(t.slots for t in tables))))
    slot_of = {v: i for i, v in enumerate(slots)}
    k = len(slots)
    space = LevelSpace(tuple(chain.from_iterable(s.space.dims for s in states)))
    stack, ends, reorder, shared_from = _stacked(ctx, slots, tables, space.dims,
                                                  [s.space.nsites for s in states])
    steps = (_pruning(n, tables, slot_of, *prune, stack.shape[1])
             if prune is not None and len(tables) > 2 else {})
    roots = _roots(n)
    rows, coef = stack[: ends[0]], tables[0].coef
    # an overflow is reported once, below, not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, len(tables)):
            lo, hi = ends[step - 1], ends[step]
            total = rows[:, None] + stack[lo:hi]  # A x B x row width
            live = np.logical_and.reduce(total[:, :, :k] < n, axis=2)
            if step in steps:
                place, keys = steps[step]
                key = total @ place
                live &= keys[keys.searchsorted(key)] == key
            phase = roots[(rows[:, : k + 1] @ reorder[:, lo:hi]) % n]
            coef = (coef[:, None] * tables[step].coef * phase)[live]
            rows = total[live]
            if step >= shared_from:  # rows of one ket pair may meet
                keep, coef = _sum_rows(n, rows[:, :k], coef, rows[:, k + 1], space.size)
                rows = rows[keep]
            elif not coef.all():
                nonzero = coef != 0
                rows, coef = rows[nonzero], coef[nonzero]
    if not np.isfinite(coef).all():
        raise ValueError("the tensor product overflowed (a coefficient is not finite); "
                         "scale the factors down")
    table = _Table(slots, rows[:, :k], coef, rows[:, k + 1])
    return GradedState._from_table(ctx, space, table)


def _stacked(ctx: AlgebraContext, slots: tuple[Variable, ...], tables: Sequence[_Table],
             dims: Sequence[int], widths: Sequence[int]
             ) -> tuple[np.ndarray, list[int], np.ndarray, int]:
    """(stack, ends, reorder, shared_from): _fold's per-factor set-up, formed once.

    stack holds every table's rows, table i (widths[i] sites of the product
    on dims) at rows ends[i-1]:ends[i], each as [exponents over slots (K
    columns) | S | flat]: flat is the row's own ket index times the product
    of the dims after its table's sites, its share of the product's flat ket
    index, and S = sum(m-1) over its table's sites, read from flat
    unravelled over dims.  A product of 2**63 kets or more raises ValueError.
    reorder is the (K+1) x rows matrix -(U.b, u - v) of every row b, so a
    row [a, S] of the product times reorder[:, b] is the q-exponent of the
    pair.  shared_from is the first fold step whose factor, or an earlier
    one, has a ket with several rows (the number of tables when none has).
    """
    k = len(slots)
    slot_of = {v: i for i, v in enumerate(slots)}
    ends = list(accumulate(len(t.coef) for t in tables))
    places = _places(dims)  # raises when the product has no int64 flat index
    stack = np.zeros((ends[-1], k + 2), dtype=np.int64)
    lo = site = 0
    for t, width, hi in zip(tables, widths, ends):
        site += width
        stack[lo:hi, [slot_of[v] for v in t.slots]] = t.exps
        stack[lo:hi, k] = -width
        stack[lo:hi, k + 1] = t.kets * math.prod(dims[site:])
        lo = hi
    flat = stack[:, k + 1]
    stack[:, k] += (flat[:, None] // places % dims).sum(axis=1)
    phase = np.empty((k, k + 1), dtype=np.int64)  # U, then u - v: 1 unbarred, -1 barred
    phase[:, :k] = _upper_eps(ctx, slots)
    phase[:, k] = [1 if v[1] else -1 for v in slots]
    reorder = -(stack[:, :k] @ phase).T
    # adjacent rows of one table with one flat index share a ket
    same = flat[1:] == flat[:-1]
    same[[e - 1 for e in ends[:-1] if 0 < e < ends[-1]]] = False  # rows of two tables
    hit = same.nonzero()[0]
    shared_from = max(bisect_right(ends, int(hit[0])), 1) if len(hit) else len(tables)
    return stack, ends, reorder, shared_from


def _pruning(n: int, tables: Sequence[_Table], slot_of: Mapping[Variable, int],
             differentials: Sequence[Variable], wexps: np.ndarray,
             width: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{fold step: (place, keys)} for _fold's prune, over rows of the given width.

    Step s (1 <= s <= len(tables) - 2) is listed when some differential is
    newly finished after it (no later table holds it).  The differentials
    finished by a step are a prefix of their finishing order, and the one
    of rank r there gets the place value n**r, so a row's key, its
    exponents times place (zero off the finished differentials' slots),
    must be one of keys: the weight rows' n-1-w over the same
    differentials and places, sorted, then one int64 maximum that no kept
    row's key reaches.  A differential that no table holds stays at 0, so
    only the weight rows with n-1 there are read; with none left nothing
    is pruned (the join then drops every row).  Nor is a step whose keys
    would not fit int64 (n**finished >= 2**63).
    """
    last = {v: i for i, t in enumerate(tables) for v in t.slots}  # the last table holding v
    held = [d in last for d in differentials]
    if not all(held):
        wexps = wexps[(wexps[:, [not h for h in held]] == n - 1).all(axis=1)][:, held]
    if not len(wexps):
        return {}
    cols = [slot_of[d] for d in differentials if d in last]
    finish = [last[d] for d in differentials if d in last]
    finishing = sorted(finish)
    listed, counts, done = [], [], 0
    for step in range(1, len(tables) - 1):
        count = bisect_right(finishing, step)  # differentials finished by now
        if count > done and n**count < 1 << 63:
            listed.append(step)
            counts.append(count)
        done = count
    if not listed:
        return {}
    rank = [0] * len(finish)  # in the finishing order
    for r, j in enumerate(sorted(range(len(finish)), key=finish.__getitem__)):
        rank[j] = r
    power = [n**r if r < counts[-1] else 0 for r in rank]
    places = np.where(np.less.outer(rank, counts).T, power, 0)  # listed steps x held
    keys = np.full((len(listed), len(wexps) + 1), np.iinfo(np.int64).max)
    keys[:, :-1] = np.sort(places @ (n - 1 - wexps).T, axis=1)
    wide = np.zeros((len(listed), width), dtype=np.int64)
    wide[:, cols] = places
    return dict(zip(listed, zip(wide, keys)))


def _widened(slots: Sequence[Variable], exps: np.ndarray, slot_of: Mapping[Variable, int],
             width: int) -> np.ndarray:
    """An exponent table over slots, moved onto the wider slots at slot_of."""
    wide = np.zeros((len(exps), width), dtype=np.int64)
    wide[:, [slot_of[v] for v in slots]] = exps
    return wide


# -- plain (Grassmann-free) states ----------------------------------------


class PlainState:
    """Dense multi-qudit state vector with per-site dimensions."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Sequence[int], amps: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        self.amps = np.asarray(amps, dtype=complex).reshape(math.prod(self.dims))

    @classmethod
    def from_terms(
        cls, dims: Sequence[int], terms: Mapping[BasisKet, complex]
    ) -> "PlainState":
        dims = tuple(int(d) for d in dims)
        amps = np.zeros(math.prod(dims), dtype=complex)
        for ket, c in terms.items():
            ket = tuple(ket)
            _check_ket(ket, dims)
            amps[int(np.ravel_multi_index(ket, dims))] += c
        return cls(dims, amps)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def coefficient(self, ket: BasisKet) -> complex:
        return complex(self.amps[int(np.ravel_multi_index(tuple(ket), self.dims))])

    def terms(self, tol: float = 0.0) -> dict[BasisKet, complex]:
        keep = np.abs(self.amps) > tol
        kets = map(tuple, np.argwhere(keep.reshape(self.dims)).tolist())  # ascending
        return dict(zip(kets, self.amps[keep].tolist()))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "PlainState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PlainState(self.dims, self.amps / nrm)

    def isclose(self, other: "PlainState", tol: float = 1e-9) -> bool:
        return self.dims == other.dims and bool(
            np.max(np.abs(self.amps - other.amps), initial=0.0) <= tol
        )

    def __repr__(self) -> str:
        parts = []
        for ket, c in self.terms(tol=1e-12).items():
            parts.append(f"({c:.6g})*|{''.join(str(m) for m in ket)}>")
        return " + ".join(parts) if parts else "0"


# -- state builders ---------------------------------------------------------


def coherent_state(
    ctx: AlgebraContext, v: Variable, d: int, scale: complex = 1.0
) -> GradedState:
    """Sum over m < d of conj(q)**(m(m+1)/2)/sqrt(m!) (scale*v)**m |m>.

    Eigenstate of the d-level annihilation operator with eigenvalue
    scale*v when d equals the grade n.  Built as its term table (_one_site):
    row m has exponent m on v and ket |m>; a coefficient that is exactly
    zero (scale 0, or a power of a tiny scale that underflows) is dropped.
    """
    if d > ctx.n:
        raise ValueError(f"coherent state needs d <= n, got d={d}, n={ctx.n}")
    if d > 171:  # 170! is the largest factorial below the float maximum
        raise ValueError(f"coherent state needs d <= 171, got d={d}: (d-1)! overflows a float")
    coef = []
    for m in range(d):
        coeff = q_power(ctx.n, -(m * (m + 1)) // 2) / math.sqrt(math.factorial(m))
        coeff *= complex(scale) ** m
        coef.append(coeff)
    return _one_site(ctx, v, LevelSpace((d,)), range(d), range(d), coef)


def squeezed_state_symmetric(ctx: AlgebraContext, v: Variable) -> GradedState:
    """(1 - (1/4) v vbar)|0> + (1/sqrt(2)) v |2> on a three-level site.

    Expansion of exp[(v b_dag^2 - vbar b^2)/2] |0> using b^3 = 0; only
    defined at grade 3.
    """
    if ctx.n != 3:
        raise ValueError("symmetric squeezed state is defined at grade 3 only")
    vb = v.conjugate
    element0 = ctx.one() - 0.25 * ctx.word([(v, 1), (vb, 1)])
    element2 = (1.0 / math.sqrt(2.0)) * ctx.gen(v)
    return GradedState.from_pairs(
        ctx, LevelSpace((3,)), [(element0, (0,)), (element2, (2,))]
    )


def squeezed_state_exp(ctx: AlgebraContext, v: Variable, d: int) -> GradedState:
    """Sum over i of conj(q)**(i(i-1))/i! v**i |2i>, truncated to 2i <= d-1.

    Built as its term table (_one_site): row i has exponent i on v and ket |2i>.
    """
    if min(ctx.n - 1, (d - 1) // 2) > 170:  # the last term divides by i! >= 171!
        raise ValueError(f"squeezed state needs d <= 342 or n <= 171, got d={d}, n={ctx.n}: "
                         "171! overflows a float")
    coef = []
    for i in range(ctx.n):
        if 2 * i > d - 1:
            break
        coef.append(q_power(ctx.n, -i * (i - 1)) / math.factorial(i))
    powers = range(len(coef))
    return _one_site(ctx, v, LevelSpace((d,)), powers, [2 * i for i in powers], coef)


def _one_site(ctx: AlgebraContext, v: Variable, space: LevelSpace, powers: Sequence[int],
              levels: Sequence[int], coef: Sequence[complex]) -> GradedState:
    """Sum over i of coef[i] v**powers[i] |levels[i]> on one site, levels
    ascending and powers in 0..n-1, tabulated directly: the exact zeros are
    dropped, and the slots are (v,) unless every row left is v**0."""
    coef = np.array(coef, dtype=complex)
    keep = coef != 0
    exps = np.array(powers, dtype=np.int64)[keep].reshape(-1, 1)
    kets = np.array(levels, dtype=np.int64)[keep]  # a level is its one site's flat index
    slots = (v,) if exps.any() else ()
    table = _Table(slots, exps[:, : len(slots)], coef[keep], kets)
    return GradedState._from_table(ctx, space, table)


def nilpotent_polynomial_state(coeffs: Sequence[complex]) -> PlainState:
    """a0|00> + a1|10> + a2|01> + a3|11> from polynomial raising coefficients."""
    if len(coeffs) != 4:
        raise ValueError("expected four coefficients a0..a3")
    a0, a1, a2, a3 = (complex(c) for c in coeffs)
    return PlainState.from_terms(
        (2, 2), {(0, 0): a0, (1, 0): a1, (0, 1): a2, (1, 1): a3}
    )


# -- ladder operators and closure checks -------------------------------------


def q_commutator(a: np.ndarray, b: np.ndarray, q: complex) -> np.ndarray:
    """[A, B]_q = AB - q BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("q_commutator expects two equal square matrices")
    return a @ b - q * (b @ a)


@dataclass(frozen=True)
class LadderSet:
    """d-level ladder matrices and the derived q-commutator combinations."""

    d: int
    q: complex
    b: np.ndarray
    b_dag: np.ndarray
    b_z: np.ndarray
    b_sq: np.ndarray
    b_dag_sq: np.ndarray
    bz_prime: np.ndarray

    @classmethod
    def build(cls, d: int, q: complex | None = None) -> "LadderSet":
        if d < 2:
            raise ValueError("ladder operators need d >= 2")
        if q is None:
            q = q_power(d, 1)
        b = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
        b_dag = b.conj().T
        b_z = q_commutator(b, b_dag, q)
        b_sq = b @ b
        b_dag_sq = b_dag @ b_dag
        bz_prime = q_commutator(b_dag_sq, b_sq, 1.0)
        return cls(d, complex(q), b, b_dag, b_z, b_sq, b_dag_sq, bz_prime)


@dataclass
class ClosureReport:
    """Outcome of a least-squares proportionality fit for an operator algebra."""

    kind: str
    d: int
    q: complex
    constants: dict[str, complex]
    residuals: dict[str, float]
    closes: bool
    flags: list[str] = field(default_factory=list)


def _proportionality_fit(xs: list[np.ndarray], bs: list[np.ndarray]):
    """Joint scalar lam minimizing sum ||X_i - lam*B_i||_F^2, with relative residual."""
    num = sum(np.vdot(b, x) for x, b in zip(xs, bs))
    den = sum(np.vdot(b, b).real for b in bs)
    lam = num / den
    dev = math.sqrt(sum(float(np.linalg.norm(x - lam * b) ** 2) for x, b in zip(xs, bs)))
    scale = math.sqrt(sum(float(np.linalg.norm(x) ** 2) for x in xs))
    rel = dev / scale if scale > 0 else 0.0
    return complex(lam), rel


def check_su_q2_closure(
    d: int, q: complex | None = None, tol: float = 1e-12
) -> ClosureReport:
    """Test whether [b_z, b]_q = lam*b and [b_dag, b_z]_q = lam*b_dag.

    The two equations share a single fitted scalar; the relative residual
    is 0 exactly when the three operators close.  The grade-3 case closes
    with lam = -3q at q = exp(2*pi*i/3); d = 4 does not close.
    """
    ladders = LadderSet.build(d, q)
    x1 = q_commutator(ladders.b_z, ladders.b, ladders.q)
    x2 = q_commutator(ladders.b_dag, ladders.b_z, ladders.q)
    lam, rel = _proportionality_fit([x1, x2], [ladders.b, ladders.b_dag])
    return ClosureReport(
        kind="su_q2",
        d=d,
        q=ladders.q,
        constants={"lambda": lam},
        residuals={"joint": rel},
        closes=rel < tol,
    )


def check_squeeze_closure(d: int = 3, tol: float = 1e-12) -> ClosureReport:
    """Closure of (b^2, b_dag^2, bz_prime) under plain commutators.

    Fits mu, nu in [bz_prime, b^2] = mu*b^2 and [bz_prime, b_dag^2] =
    nu*b_dag^2.  At d = 3 direct computation gives mu = -4, nu = +4;
    the cataloged constant -8 does not match and is flagged.
    """
    if d != 3:
        raise ValueError("squeeze closure check is defined for d = 3")
    ladders = LadderSet.build(d)
    xm = q_commutator(ladders.bz_prime, ladders.b_sq, 1.0)
    xn = q_commutator(ladders.bz_prime, ladders.b_dag_sq, 1.0)
    mu, rm = _proportionality_fit([xm], [ladders.b_sq])
    nu, rn = _proportionality_fit([xn], [ladders.b_dag_sq])
    flags = []
    if abs(mu - (-8.0)) > 1e-9:
        flags.append("SQUEEZE_CLOSURE_CONST")
    return ClosureReport(
        kind="squeeze",
        d=d,
        q=ladders.q,
        constants={"mu": complex(mu), "nu": complex(nu)},
        residuals={"mu": rm, "nu": rn},
        closes=max(rm, rn) < tol,
        flags=flags,
    )


# -- eigenstate check ---------------------------------------------------------


def apply_annihilation(state: GradedState, site: int = 0) -> GradedState:
    """Apply the site annihilation operator b, commuting it past the elements.

    b crosses an unbarred power with phase q and a barred power with
    conj(q) per unit exponent ([b, theta]_q = 0 and its conjugates), so
    b f|m> = _twist(f, 1) sqrt(m)|m-1> on the site.
    """
    nsites = state.space.nsites
    if not 0 <= site < nsites:
        raise ValueError(f"site {site} out of range for {nsites} sites")
    parts: dict[BasisKet, AlgebraElement] = {}
    for ket, f in state.parts.items():
        m = ket[site]
        if m:
            parts[ket[:site] + (m - 1,) + ket[site + 1 :]] = _twist(f, 1) * math.sqrt(m)
    return state._with(parts)


def eigenstate_check(state: GradedState, v: Variable) -> float:
    """|| b|state> - v|state> || for a single-site state."""
    if state.space.nsites != 1:
        raise ValueError("eigenstate check expects a single-site state")
    b_state = apply_annihilation(state)
    v_state = state.left_multiply(state.ctx.gen(v))
    diff = b_state - v_state
    return diff.norm()
