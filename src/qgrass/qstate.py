"""Multi-qudit kets coupled to the graded Grassmann algebra.

A GradedState is a sum over basis kets k of f_k(theta)|k>, with the
monomials to the LEFT of the ket.  Its one store is the term table, built
by every constructor and never mutated: the canonical slots (sorted
Variables), a T x K int64 exponent array over them, a complex coefficient
per row and the ket digits per row.  Rows are ket-contiguous, no
coefficient is exactly zero and no (monomial, ket) pair repeats.  tensor
and the weight join (entangle) build and read only tables; _summed is
their shared kernel for adding equal (monomial, ket) rows.  ``parts`` is
a read-only view, one nonzero AlgebraElement per ket in the table's ket
order, boxed from the table on first read.  The remaining state
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

import math
from dataclasses import dataclass, field
from itertools import chain, compress
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
        out = 1
        for d in self.dims:
            out *= d
        return out

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
    digits: np.ndarray  # T x S int64, the ket of each row


def _exponents(monos: Sequence[Monomial], slot_of: Mapping[Variable, int], width: int) -> np.ndarray:
    """len(monos) x width int64 table: row i holds monos[i]'s exponents at slot_of."""
    exps = np.zeros((len(monos), width), dtype=np.int64)
    exps[
        [i for i, mono in enumerate(monos) for _ in mono],
        [slot_of[v] for mono in monos for v, _ in mono],
    ] = [e for mono in monos for _, e in mono]
    return exps


def _tabulate(space: LevelSpace, parts: Mapping[BasisKet, Mapping[Monomial, complex]]) -> _Table:
    """The term table of per-ket terms (rows ket by ket, terms in order, exact
    zeros dropped); the kets of nonzero terms are checked against space."""
    monos: list[Monomial] = []
    coef: list[complex] = []
    kets: list[BasisKet] = []
    for ket, terms in parts.items():
        terms = {m: complex(c) for m, c in terms.items() if c != 0}
        if terms:
            space.check_ket(ket)
            monos += terms
            coef += terms.values()
            kets += [ket] * len(terms)
    slots = tuple(sorted({v for mono in monos for v, _ in mono}))
    exps = _exponents(monos, {v: i for i, v in enumerate(slots)}, len(slots))
    digits = np.array(kets, dtype=np.int64).reshape(len(kets), space.nsites)
    return _Table(slots, exps, np.array(coef, dtype=complex), digits)


def _boxed(ctx: AlgebraContext, table: _Table) -> dict[BasisKet, AlgebraElement]:
    """The per-ket view of a term table."""
    slots = table.slots
    grouped: dict[BasisKet, dict[Monomial, complex]] = {}
    rows = zip(table.exps.tolist(), table.coef.tolist(), map(tuple, table.digits.tolist()))
    for row, c, ket in rows:
        terms = grouped.get(ket)
        if terms is None:
            terms = grouped[ket] = {}
        terms[Monomial(compress(zip(slots, row), row))] = c
    return {k: AlgebraElement(ctx, t) for k, t in grouped.items()}


def _row_keys(rows: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """One int64 per row, equal exactly for equal rows; column c holds 0..radices[c]-1.

    Rows pack in mixed radix, the last column most significant, when the
    radices' product (in Python integers) stays below 2**63; otherwise a
    row's key is its rank among the distinct rows.
    """
    place, size = [], 1
    for r in radices:
        place.append(size)
        size *= r
    if size < 1 << 63:
        return rows @ np.array(place, dtype=np.int64)
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _sum_by(group: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of values per group, added in index order."""
    return np.bincount(group, values.real, size) + 1j * np.bincount(group, values.imag, size)


def _summed(n: int, exps: np.ndarray, coef: np.ndarray, digits: np.ndarray,
            ket: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows with equal (exponents in 0..n-1, ket) summed in row order, exact zeros dropped.

    ket[i] is the output position of row i's ket; rows come out by it, then
    by the first row of each (exponents, ket).
    """
    if not len(coef):
        return exps, coef, digits
    order = np.argsort(ket, kind="stable")
    radices = [n] * exps.shape[1] + [int(ket[order[-1]]) + 1]
    keys = _row_keys(np.column_stack([exps[order], ket[order]]), radices)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    coef = _sum_by(rank[inverse], coef[order], len(first))
    nonzero = coef != 0
    rows = order[np.sort(first)[nonzero]]
    return exps[rows], coef[nonzero], digits[rows]


def _upper_eps(ctx: AlgebraContext, slots: Sequence[Variable]) -> np.ndarray:
    """K x K int64 U mod n: U[y, x] = eps(slots[y], slots[x]) for y < x, else 0.

    Read from the context's phase table, so overrides count.  A block y**e
    moving left past a block x**f (y < x) collects -U[y, x]*e*f.
    """
    n = ctx.n
    idx = np.arange(len(slots))
    eps = (idx[:, None] < idx).astype(np.int64)
    slot_of = {v: i for i, v in enumerate(slots)}
    for (a, b), e in ctx.phase_table.signed.items():
        y, x = slot_of.get(a), slot_of.get(b)
        if y is not None and x is not None and y < x:
            eps[y, x] = e % n
    return eps


def _roots(n: int) -> np.ndarray:
    """q**k for k = 0..n-1, each from q_power."""
    return np.array([q_power(n, k) for k in range(n)])


class GradedState:
    """Sum over basis kets k of f_k|k>, stored as one term table.

    Built from flat {(Monomial, ket): coefficient} terms, from
    (element, ket) pairs, by tensor and by the weight integral; each builds
    its table at once.  ``parts`` maps each ket to its nonzero element and
    is boxed from the table on first read; ``terms`` is the flat view,
    rebuilt on every access.
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
        self._table = _tabulate(space, grouped)

    @classmethod
    def _from_table(cls, ctx: AlgebraContext, space: LevelSpace, table: _Table) -> "GradedState":
        state = cls.__new__(cls)
        state.ctx, state.space, state._parts, state._table = ctx, space, None, table
        return state

    def _with(self, parts: Mapping[BasisKet, AlgebraElement]) -> "GradedState":
        table = _tabulate(self.space, {k: f.terms for k, f in parts.items()})
        return GradedState._from_table(self.ctx, self.space, table)

    @property
    def parts(self) -> dict[BasisKet, AlgebraElement]:
        """Each ket's nonzero element, in table order; boxed once, on first read."""
        if self._parts is None:
            self._parts = _boxed(self.ctx, self._table)
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
        amps[np.ravel_multi_index(table.digits[plain].T, self.space.dims)] += table.coef[plain]
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
    """Tensor product with canonicalization, as one array fold over term tables.

    Each term a|ka> of the product so far meets each term b|kb> of the next
    factor: (a|ka>)(b|kb>) = q**e (a b)|ka kb>.  The exponent row of a b is
    the sum of a's and b's rows, and the pair dies when any sum reaches n.
    Its q-exponent is

        e = -b.U.a  -  S * (u - v),

    the reordering phase of monomial_product (U from _upper_eps, so phase
    table overrides count) plus the grading twist that pulls b leftwards
    across ka: S = sum(m-1 over ka), u and v the unbarred and barred
    degrees of b.  Rows come ket pair by ket pair, (ka, kb) in the factors'
    ket order, and pairs reaching one (monomial, ket) are summed in pair
    order (_summed; only needed once a ket has several rows); exact zeros
    are dropped.  No Monomial or AlgebraElement is built.
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
    eps = _upper_eps(ctx, slots)
    roots = _roots(n)
    sign = np.array([1 if v[1] else -1 for v in slots], dtype=np.int64)  # unbarred, barred
    exps, coef, digits = _widened(tables[0], slot_of, len(slots)), tables[0].coef, tables[0].digits
    shared = _shares_kets(digits)  # some ket has several rows
    for t in tables[1:]:
        texps = _widened(t, slot_of, len(slots))
        shift = digits.sum(axis=1) - digits.shape[1]
        qexp = -(exps @ (texps @ eps).T) - np.outer(shift, texps @ sign)
        total = exps[:, None] + texps  # A x B x K
        ai, bi = np.nonzero((total < n).all(axis=2))
        coef = coef[ai] * t.coef[bi] * roots[qexp[ai, bi] % n]
        exps, joined = total[ai, bi], np.concatenate([digits[ai], t.digits[bi]], axis=1)
        shared = shared or _shares_kets(t.digits)
        if shared:  # rows of one ket pair may meet; ket pairs keep the factors' order
            ket_pair = _ket_index(digits)[ai] * len(t.digits) + _ket_index(t.digits)[bi]
            exps, coef, digits = _summed(n, exps, coef, joined, ket_pair)
        elif coef.all():
            digits = joined
        else:
            nonzero = coef != 0
            exps, coef, digits = exps[nonzero], coef[nonzero], joined[nonzero]
    space = LevelSpace(tuple(chain.from_iterable(s.space.dims for s in states)))
    return GradedState._from_table(ctx, space, _Table(slots, exps, coef, digits))


def _widened(table: _Table, slot_of: Mapping[Variable, int], width: int) -> np.ndarray:
    """table's exponents over the wider slots at slot_of."""
    exps = np.zeros((len(table.exps), width), dtype=np.int64)
    exps[:, [slot_of[v] for v in table.slots]] = table.exps
    return exps


def _shares_kets(digits: np.ndarray) -> bool:
    """Whether two rows of ket-contiguous digits share a ket."""
    return not (digits[1:] != digits[:-1]).any(axis=1).all()


def _ket_index(digits: np.ndarray) -> np.ndarray:
    """Index of each row's ket among the kets of ket-contiguous digits."""
    index = np.zeros(len(digits), dtype=np.int64)
    np.cumsum((digits[1:] != digits[:-1]).any(axis=1), out=index[1:])
    return index


# -- plain (Grassmann-free) states ----------------------------------------


class PlainState:
    """Dense multi-qudit state vector with per-site dimensions."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Sequence[int], amps: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        size = 1
        for d in self.dims:
            size *= d
        amps = np.asarray(amps, dtype=complex).reshape(size)
        self.amps = amps

    @classmethod
    def from_terms(
        cls, dims: Sequence[int], terms: Mapping[BasisKet, complex]
    ) -> "PlainState":
        dims = tuple(int(d) for d in dims)
        size = 1
        for d in dims:
            size *= d
        amps = np.zeros(size, dtype=complex)
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
        out = {}
        for flat, c in enumerate(self.amps):
            if abs(c) > tol:
                out[tuple(int(x) for x in np.unravel_index(flat, self.dims))] = complex(c)
        return out

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
    scale*v when d equals the grade n.
    """
    if d > ctx.n:
        raise ValueError(f"coherent state needs d <= n, got d={d}, n={ctx.n}")
    terms: dict[tuple[Monomial, BasisKet], complex] = {}
    for m in range(d):
        coeff = q_power(ctx.n, -(m * (m + 1)) // 2) / math.sqrt(math.factorial(m))
        coeff *= complex(scale) ** m
        mono = MONOMIAL_ONE if m == 0 else Monomial(((v, m),))
        terms[(mono, (m,))] = coeff
    return GradedState(ctx, LevelSpace((d,)), terms)


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
    """Sum over i of conj(q)**(i(i-1))/i! v**i |2i>, truncated to 2i <= d-1."""
    terms: dict[tuple[Monomial, BasisKet], complex] = {}
    for i in range(ctx.n):
        if 2 * i > d - 1:
            break
        coeff = q_power(ctx.n, -i * (i - 1)) / math.factorial(i)
        mono = MONOMIAL_ONE if i == 0 else Monomial(((v, i),))
        terms[(mono, (2 * i,))] = coeff
    return GradedState(ctx, LevelSpace((d,)), terms)


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
