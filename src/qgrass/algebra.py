"""Z_n-graded Grassmann algebra with Berezin integration.

Generators come in conjugate pairs theta_i / theta_bar_i.  Every generator
is nilpotent of order n, and for two generators x, y with x preceding y in
the canonical order the product reorders as

    x * y = q**eps(x, y) * y * x,      q = exp(2*pi*i/n).

The canonical order places the barred partner first at each index:
theta_bar_1 < theta_1 < theta_bar_2 < theta_2 < ...  With eps = +1 for
every ordered pair this single rule gives

    theta_i theta_j   = q theta_j theta_i          (i < j)
    tbar_i  tbar_j    = q tbar_j  tbar_i           (i < j)
    theta_i tbar_i    = conj(q) tbar_i theta_i

simultaneously.  The phase table is plain data and can be overridden per
context for experiments with other commutation conventions.

Variables and monomials are tuples in canonical order: a Variable is
(index, 0 if barred else 1) and a Monomial is a tuple of (Variable,
exponent) blocks, so equality, hashing and ordering are native tuple
operations.

Berezin integration is the linear functional

    integral d(theta) theta**k = delta(k, n-1),

evaluated operationally: the integrated variable's block is commuted to
the leftmost position (collecting q-phases), then the term survives iff
the block's exponent is exactly n - 1.

monomial_product and integrate_monomial apply the two rules to canonical
monomials; normal_order gives the fold of monomial_product over an
arbitrary word, summing the phases pair by pair.  All q-phases are
tracked as integer exponents and converted to a complex scalar once per
term, so reordering accumulates no phase drift.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

CMP_TOL = 1e-9

def q_power(n: int, k: int) -> complex:
    """exp(2*pi*i*k/n), with the exponent reduced mod n before evaluation."""
    n = int(n)
    k = k % n
    if k == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * cmath.pi * k / n)


class Variable(tuple):
    """A Grassmann generator theta_index (barred=False) or tbar_index.

    Stored as the tuple (index, 0 if barred else 1), so native tuple
    equality, hashing and order are the canonical ones.
    """

    __slots__ = ()

    def __new__(cls, index: int, barred: bool = False) -> "Variable":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return tuple.__new__(cls, (index, 0 if barred else 1))

    def __getnewargs__(self) -> tuple[int, bool]:
        return self[0], not self[1]

    index = property(itemgetter(0))

    @property
    def barred(self) -> bool:
        return not self[1]

    @property
    def sort_key(self) -> tuple[int, int]:
        # barred partner precedes the plain variable at the same index
        return tuple(self)

    @property
    def name(self) -> str:
        return f"theta_{self[0]}" if self[1] else f"theta_bar_{self[0]}"

    @property
    def conjugate(self) -> "Variable":
        return tuple.__new__(Variable, (self[0], 1 - self[1]))

    def __repr__(self) -> str:
        return self.name


_VARIABLE_NAME = re.compile(r"theta_(bar_)?([1-9][0-9]*)")


def parse_variable(name: str) -> Variable:
    """Inverse of Variable.name ('theta_3', 'theta_bar_1'); no other spelling."""
    match = _VARIABLE_NAME.fullmatch(name) if isinstance(name, str) else None
    if match is None:
        raise ValueError(f"cannot parse variable name {name!r}")
    return Variable(int(match[2]), barred=bool(match[1]))


@dataclass(frozen=True)
class PhaseTable:
    """eps(x, y) for pairs of generators.

    x*y = q**eps(x,y) * y*x.  eps is antisymmetric and is +1 for every
    canonically ordered pair x < y unless overridden.  An override
    (a, b, e) sets eps(a, b) = e and eps(b, a) = -e; `signed` holds both
    orientations of every override, built once here.
    """

    overrides: tuple[tuple[Variable, Variable, int], ...] = ()
    signed: dict[tuple[Variable, Variable], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        signed: dict[tuple[Variable, Variable], int] = {}
        for (a, b, e) in self.overrides:
            if a == b:
                raise ValueError(f"phase override pairs {a!r} with itself")
            for key, value in (((a, b), e), ((b, a), -e)):
                if signed.setdefault(key, value) != value:
                    raise ValueError(f"conflicting phase overrides for {a!r} and {b!r}")
        object.__setattr__(self, "signed", signed)

    def eps(self, x: Variable, y: Variable) -> int:
        e = self.signed.get((x, y))
        if e is not None:
            return e
        return 0 if x == y else 1 if x < y else -1


class Monomial(tuple):
    """Product of generator powers in canonical variable order.

    A tuple of (Variable, exponent) blocks with variables strictly
    increasing and every exponent in 1..n-1, so native tuple equality,
    hashing and order apply.  The empty tuple is the scalar monomial 1.
    """

    __slots__ = ()

    @property
    def exps(self) -> "Monomial":
        return self

    def exponent(self, v: Variable) -> int:
        for (u, e) in self:
            if u == v:
                return e
        return 0

    def degree_split(self) -> tuple[int, int]:
        """(total unbarred exponent, total barred exponent)."""
        unbarred = sum(e for v, e in self if v[1])
        barred = sum(e for v, e in self if not v[1])
        return unbarred, barred

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in self)

    def __repr__(self) -> str:
        return f"Monomial(exps={tuple(self)!r})"


MONOMIAL_ONE = Monomial(())


def monomial_product(a: Monomial, b: Monomial, table: PhaseTable, n: int):
    """(q_exponent, Monomial) with a * b = q**q_exponent * monomial, a and b canonical.

    (0, None) when the product vanishes by nilpotency.  Each block y**e of b
    passes every larger block x**f of a, collecting -eps(y, x)*f*e; equal
    variables add their exponents.
    """
    signed, out, qexp, i, na = table.signed, [], 0, 0, len(a)
    for (y, e) in b:
        while i < na and a[i][0] < y:
            out.append(a[i])
            i += 1
        j = i + 1 if i < na and a[i][0] == y else i
        for (x, f) in a[j:]:  # y < x, so eps(y, x) is +1 unless overridden
            qexp -= signed.get((y, x), 1) * f * e
        if j > i:
            e += a[i][1]
            i = j
            if e >= n:
                return 0, None
        out.append((y, e))
    out.extend(a[i:])
    return qexp, Monomial(out)


def integrate_monomial(mono: Monomial, order: Sequence[Variable], table: PhaseTable, n: int):
    """Iterated integral of a canonical monomial, rightmost differential first.

    (q_exponent, rest) with integral = q**q_exponent * rest, or (0, None)
    unless every differential carries exponent n-1.  Each differential's
    block commutes to the far left past the blocks still present, then goes.
    """
    signed, exps, qexp = table.signed, mono, 0
    for v in reversed(order):
        block = (v, n - 1)
        if block not in exps:
            return 0, None
        pos = exps.index(block)
        # every block before pos has u < v, so eps(u, v) is +1 unless overridden
        qexp += sum(signed.get((u, v), 1) * e for (u, e) in exps[:pos]) * (n - 1)
        exps = exps[:pos] + exps[pos + 1:]
    return qexp, Monomial(exps)


def normal_order(blocks: Sequence[tuple[Variable, int]], table: PhaseTable, n: int):
    """(q_exponent, Monomial) with word = q**q_exponent * monomial, blocks in any order.

    (0, None) when the word vanishes by nilpotency.  Equal to a left fold of
    monomial_product over the word's blocks: each block y**e collects
    -eps(y, x)*f*e from every earlier block x**f with y < x, and the
    exponents merge once at the end.  A running sum per variable stops the
    word where the fold would find the product vanish, before any later
    negative exponent raises.
    """
    signed, qexp, seen, total = table.signed, 0, [], {}
    for (v, e) in blocks:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("negative exponent in monomial word")
        f = total.get(v, 0) + e
        if f >= n:
            return 0, None
        total[v] = f
        for (x, g) in seen:
            if v < x:  # eps(v, x) is +1 unless overridden
                qexp -= signed.get((v, x), 1) * g * e
        seen.append((v, e))
    return qexp, Monomial(sorted(total.items()))


@dataclass(frozen=True)
class AlgebraContext:
    """Grade and phase table shared by a family of elements."""

    n: int
    phase_table: PhaseTable = field(default_factory=PhaseTable)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grade must be >= 2, got {self.n}")

    @property
    def q(self) -> complex:
        return q_power(self.n, 1)

    def qp(self, k: int) -> complex:
        return q_power(self.n, k)

    def theta(self, index: int) -> Variable:
        return Variable(index, barred=False)

    def theta_bar(self, index: int) -> Variable:
        return Variable(index, barred=True)

    def scalar(self, c: complex) -> "AlgebraElement":
        return AlgebraElement(self, {MONOMIAL_ONE: complex(c)})

    def one(self) -> "AlgebraElement":
        return self.scalar(1.0)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def gen(self, v: Variable, power: int = 1) -> "AlgebraElement":
        return self.word([(v, power)])

    def word(self, blocks_or_vars: Iterable) -> "AlgebraElement":
        """Element for an arbitrarily ordered word of variables.

        Accepts either bare Variables or (Variable, exponent) pairs; the
        word is normal-ordered and the reordering phase absorbed into the
        coefficient.
        """
        blocks = []
        for item in blocks_or_vars:
            if isinstance(item, Variable):
                blocks.append((item, 1))
            else:
                blocks.append((item[0], int(item[1])))
        qexp, mono = normal_order(blocks, self.phase_table, self.n)
        if mono is None:
            return self.zero()
        return AlgebraElement(self, {mono: q_power(self.n, qexp)})

    def element(self, terms: Mapping[Monomial, complex]) -> "AlgebraElement":
        return AlgebraElement(self, dict(terms))


class AlgebraElement:
    """Finite sum of complex coefficients times canonical monomials.

    Immutable by convention: every operation returns a new element.  A
    term is dropped at construction only when its coefficient is exactly 0,
    so small but genuine coefficients (1/15! at grade 16) survive.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Mapping[Monomial, complex]):
        self.ctx = ctx
        self.terms = {m: complex(c) for m, c in terms.items() if c != 0}

    # -- ring structure -------------------------------------------------

    def _check_ctx(self, other: "AlgebraElement") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("operands belong to different algebra contexts")

    def __add__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ctx(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return AlgebraElement(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, float, complex)):
            return AlgebraElement(
                self.ctx, {m: c * other for m, c in self.terms.items()}
            )
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_ctx(other)
        n = self.ctx.n
        table = self.ctx.phase_table
        out: dict[Monomial, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                qexp, mono = monomial_product(ma, mb, table, n)
                if mono is None:
                    continue
                out[mono] = out.get(mono, 0.0) + ca * cb * q_power(n, qexp)
        return AlgebraElement(self.ctx, out)

    def __rmul__(self, other) -> "AlgebraElement":
        return self * other if isinstance(other, (int, float, complex)) else NotImplemented

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ctx.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return other
        if isinstance(other, (int, float, complex)):
            return self.ctx.scalar(other)
        return NotImplemented

    # -- involution and substitutions -----------------------------------

    def conjugate(self) -> "AlgebraElement":
        """Hermitian conjugate: reverse each word, toggle bars, conjugate scalars."""
        n = self.ctx.n
        table = self.ctx.phase_table
        out: dict[Monomial, complex] = {}
        for mono, c in self.terms.items():
            blocks = [(v.conjugate, e) for (v, e) in reversed(mono)]
            qexp, new = normal_order(blocks, table, n)
            if new is None:
                continue
            out[new] = out.get(new, 0.0) + c.conjugate() * q_power(n, qexp)
        return AlgebraElement(self.ctx, out)

    def scale_variable(self, v: Variable, c: complex) -> "AlgebraElement":
        """Substitute v -> c*v, multiplying each term by c**exponent(v)."""
        out = {}
        for mono, coeff in self.terms.items():
            e = mono.exponent(v)
            out[mono] = coeff * (complex(c) ** e if e else 1.0)
        return AlgebraElement(self.ctx, out)

    # -- Berezin integration ---------------------------------------------

    def berezin_integrate(self, v: Variable) -> "AlgebraElement":
        """Keep terms where v has exponent n-1, after extracting v's block leftwards."""
        return self.multi_integrate((v,))

    def multi_integrate(self, order: Sequence[Variable]) -> "AlgebraElement":
        """Iterated integral; the differential written last acts first."""
        if len(set(order)) != len(order):
            raise ValueError("repeated variable in integration order")
        n = self.ctx.n
        table = self.ctx.phase_table
        out: dict[Monomial, complex] = {}
        for mono, c in self.terms.items():
            qexp, rest = integrate_monomial(mono, order, table, n)
            if rest is not None:  # distinct surviving terms keep distinct rests
                out[rest] = c * q_power(n, qexp)
        return AlgebraElement(self.ctx, out)

    # -- queries ----------------------------------------------------------

    def coefficient(self, mono: Monomial) -> complex:
        return self.terms.get(mono, 0.0 + 0.0j)

    def coefficient_of_word(self, blocks_or_vars: Iterable) -> complex:
        """Coefficient relative to an arbitrarily ordered word.

        Returns c such that the element contains c * (word); the word's
        normal-ordering phase is divided out.
        """
        w = self.ctx.word(blocks_or_vars)
        if len(w.terms) != 1:
            raise ValueError("word vanishes by nilpotency")
        ((mono, phase),) = w.terms.items()
        return self.terms.get(mono, 0.0 + 0.0j) / phase

    def norm(self) -> float:
        return sum(abs(c) ** 2 for c in self.terms.values()) ** 0.5

    def isclose(self, other: "AlgebraElement", tol: float = CMP_TOL) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            raise TypeError(f"cannot compare an algebra element with {type(other).__name__}")
        keys = set(self.terms) | set(rhs.terms)
        return all(abs(self.terms.get(k, 0.0) - rhs.terms.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            parts.append(f"({c:.6g})*{mono}")
        return " + ".join(parts)

