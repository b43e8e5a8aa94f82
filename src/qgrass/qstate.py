"""Multi-qudit kets coupled to the graded Grassmann algebra.

A GradedState is a finite sum of complex coefficients times
(Grassmann monomial) x (basis ket), always stored in canonical form with
the monomial to the LEFT of its ket.  Moving a variable across a ket uses
the quantization relation

    theta     |m> = q**(m-1)      |m> theta
    theta_bar |m> = conj(q)**(m-1)|m> theta_bar

(the barred relation follows by Hermitian conjugation of the bra rule).
quantize_exponent gives the q-exponent of that left-to-right relation;
pulling a monomial from the right of a ket to the left therefore
multiplies the coefficient by the conjugate phase.

The module also provides the d-level ladder matrices b, b_dag and their
q-commutator closures, plus the coherent / squeezed state builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    MONOMIAL_ONE,
    Variable,
    integrate_monomial,
    monomial_product,
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
        if len(ket) != len(self.dims) or any(
            not (0 <= m < d) for m, d in zip(ket, self.dims)
        ):
            raise ValueError(f"ket {ket} out of range for dims {self.dims}")


def quantize_exponent(mono: Monomial, ket: BasisKet) -> int:
    """Integer e with  mono |ket> = q**e |ket> mono.

    Each unbarred power k crossing a site at level m contributes (m-1)*k;
    barred powers contribute -(m-1)*k.
    """
    unbarred, barred = mono.degree_split()
    weight = unbarred - barred
    return sum((m - 1) for m in ket) * weight


class GradedState:
    """Sum of coefficient * monomial * |ket> terms in canonical form."""

    __slots__ = ("ctx", "space", "terms")

    def __init__(
        self,
        ctx: AlgebraContext,
        space: LevelSpace,
        terms: Mapping[tuple[Monomial, BasisKet], complex],
    ):
        self.ctx = ctx
        self.space = space
        clean: dict[tuple[Monomial, BasisKet], complex] = {}
        for (mono, ket), c in terms.items():
            if abs(c) < ctx.prune_tol:
                continue
            space.check_ket(ket)
            clean[(mono, tuple(ket))] = complex(c)
        self.terms = clean

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        ctx: AlgebraContext,
        space: LevelSpace,
        pairs: Iterable[tuple[AlgebraElement, BasisKet]],
    ) -> "GradedState":
        terms: dict[tuple[Monomial, BasisKet], complex] = {}
        for element, ket in pairs:
            for mono, c in element.terms.items():
                key = (mono, tuple(ket))
                terms[key] = terms.get(key, 0.0) + c
        return cls(ctx, space, terms)

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "GradedState") -> "GradedState":
        if self.ctx != other.ctx or self.space != other.space:
            raise ValueError("cannot add states from different contexts/spaces")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return GradedState(self.ctx, self.space, out)

    def __sub__(self, other: "GradedState") -> "GradedState":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "GradedState":
        return GradedState(
            self.ctx, self.space, {k: c * scalar for k, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def left_multiply(self, w: AlgebraElement) -> "GradedState":
        """Multiply by an algebra element from the left of every term."""
        if w.ctx != self.ctx:
            raise ValueError("weight and state use different algebra contexts")
        n = self.ctx.n
        table = self.ctx.phase_table
        out: dict[tuple[Monomial, BasisKet], complex] = {}
        for (mono, ket), c in self.terms.items():
            for wm, wc in w.terms.items():
                qexp, new = monomial_product(wm, mono, table, n)
                if new is None:
                    continue
                key = (new, ket)
                out[key] = out.get(key, 0.0) + wc * c * q_power(n, qexp)
        return GradedState(self.ctx, self.space, out)

    # -- integration -------------------------------------------------------

    def multi_integrate(self, order: Sequence[Variable]) -> "GradedState":
        """Iterated integral; the differential written last acts first."""
        if len(set(order)) != len(order):
            raise ValueError("repeated variable in integration order")
        n = self.ctx.n
        table = self.ctx.phase_table
        out: dict[tuple[Monomial, BasisKet], complex] = {}
        for (mono, ket), c in self.terms.items():
            qexp, rest = integrate_monomial(mono, order, table, n)
            if rest is not None:  # distinct surviving terms keep distinct rests
                out[rest, ket] = c * q_power(n, qexp)
        return GradedState(self.ctx, self.space, out)

    # -- queries -----------------------------------------------------------

    def grassmann_part_norm(self) -> float:
        """Norm of the terms that still carry Grassmann content."""
        return (
            sum(abs(c) ** 2 for (m, _), c in self.terms.items() if m != MONOMIAL_ONE)
            ** 0.5
        )

    def to_plain(self, tol: float = 1e-9) -> "PlainState":
        residual = self.grassmann_part_norm()
        if residual > tol:
            raise GrassmannResidueError(residual, self)
        return self.plain_projection()

    def plain_projection(self) -> "PlainState":
        """Grassmann-free part, discarding any residual monomial terms."""
        amps: dict[BasisKet, complex] = {}
        for (mono, ket), c in self.terms.items():
            if mono == MONOMIAL_ONE:
                amps[ket] = amps.get(ket, 0.0) + c
        return PlainState.from_terms(self.space.dims, amps)

    def coefficient(self, mono: Monomial, ket: BasisKet) -> complex:
        return self.terms.get((mono, tuple(ket)), 0.0 + 0.0j)

    def coefficient_of_word(self, blocks_or_vars, ket: BasisKet) -> complex:
        """Coefficient relative to an arbitrarily ordered monomial word."""
        w = self.ctx.word(blocks_or_vars)
        if len(w.terms) != 1:
            raise ValueError("word vanishes by nilpotency")
        ((mono, phase),) = w.terms.items()
        return self.coefficient(mono, ket) / phase

    def isclose(self, other: "GradedState", tol: float | None = None) -> bool:
        tol = self.ctx.cmp_tol if tol is None else tol
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.terms.values()) ** 0.5

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (mono, ket) in sorted(
            self.terms, key=lambda mk: (mk[1], str(mk[0]))
        ):
            c = self.terms[(mono, ket)]
            ketstr = "".join(str(m) for m in ket)
            head = "" if mono == MONOMIAL_ONE else f"{mono}*"
            parts.append(f"({c:.6g})*{head}|{ketstr}>")
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
    """Tensor product with canonicalization.

    Monomials of later factors are commuted across the kets of earlier
    factors (conjugate quantization phases) and merged into the earlier
    monomials with monomial_product.
    """
    if not states:
        raise ValueError("tensor of no states")
    acc = states[0]
    for s in states[1:]:
        acc = _tensor2(acc, s)
    return acc


def _tensor2(a: GradedState, b: GradedState) -> GradedState:
    if a.ctx != b.ctx:
        raise ValueError("tensor factors use different algebra contexts")
    n = a.ctx.n
    table = a.ctx.phase_table
    space = LevelSpace(a.space.dims + b.space.dims)
    out: dict[tuple[Monomial, BasisKet], complex] = {}
    for (ma, ka), ca in a.terms.items():
        for (mb, kb), cb in b.terms.items():
            cross = -quantize_exponent(mb, ka)  # conj of the left-to-right phase
            qexp, mono = monomial_product(ma, mb, table, n)
            if mono is None:
                continue
            key = (mono, ka + kb)
            out[key] = out.get(key, 0.0) + ca * cb * q_power(n, cross + qexp)
    return GradedState(a.ctx, space, out)


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
            amps[int(np.ravel_multi_index(tuple(ket), dims))] += c
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


def squeezed_state_symmetric(ctx: AlgebraContext, v: Variable, d: int = 3) -> GradedState:
    """(1 - (1/4) v vbar)|0> + (1/sqrt(2)) v |2> on a three-level site.

    Expansion of exp[(v b_dag^2 - vbar b^2)/2] |0> using b^3 = 0; only
    defined at grade 3 with d = 3.
    """
    if ctx.n != 3 or d != 3:
        raise ValueError("symmetric squeezed state is defined at grade 3, d = 3 only")
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


def nilpotent_polynomial_state(coeffs: Sequence[complex], sites: int = 2) -> PlainState:
    """a0|00> + a1|10> + a2|01> + a3|11> from polynomial raising coefficients."""
    if sites != 2:
        raise ValueError("only the two-site polynomial expansion is defined")
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
    """Apply the site annihilation operator b, commuting it past monomials.

    b crosses an unbarred power with phase q and a barred power with
    conj(q) per unit exponent ([b, theta]_q = 0 and its conjugates).
    """
    d = state.space.dims[site]
    n = state.ctx.n
    out: dict[tuple[Monomial, BasisKet], complex] = {}
    for (mono, ket), c in state.terms.items():
        unbarred, barred = mono.degree_split()
        phase = q_power(n, unbarred - barred)
        m = ket[site]
        if m == 0:
            continue
        new_ket = ket[:site] + (m - 1,) + ket[site + 1 :]
        key = (mono, new_ket)
        out[key] = out.get(key, 0.0) + c * phase * math.sqrt(m)
    return GradedState(state.ctx, state.space, out)


def eigenstate_check(state: GradedState, v: Variable) -> float:
    """|| b|state> - v|state> || for a single-site state."""
    if state.space.nsites != 1:
        raise ValueError("eigenstate check expects a single-site state")
    b_state = apply_annihilation(state)
    v_state = state.left_multiply(state.ctx.gen(v))
    diff = b_state - v_state
    return diff.norm()
