"""Catalog of weight-integral constructions with verification.

Every entry packages a recipe (product of coherent / squeezed states, a
weight function, a differential list) together with its cataloged target
state.  catalog_construct runs the recipe, compares the computed state to
the target under the policy

    exact  >  global_phase  >  signature  >  mismatch,

where "signature" means equal up to a global phase and one diagonal phase
gate per site, decided exactly: the gates are either found, and kept on
the result, or proved not to exist by an integer normal form of the
target's support, computed over Python ints.  Every test reads only the
union of the two states' supports.  Each entry also attaches an
independent least-squares solver cross-check over a full monomial basis.
Non-exact matches are flagged with stable discrepancy ids, never silently
accepted.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, Variable
from .entangle import (
    DEFAULT_TOL,
    EntanglementReport,
    IntegralSpec,
    MonomialBasis,
    WeightSolution,
    _integrate,
    entanglement_report,
    integrate_graded,
    solve_weight,
)
from .qstate import (
    GradedState,
    PlainState,
    coherent_state,
    squeezed_state_exp,
    squeezed_state_symmetric,
    tensor,
)

MATCH_EXACT = "exact"
MATCH_GLOBAL_PHASE = "global_phase"
MATCH_SIGNATURE = "signature"
MATCH_MISMATCH = "mismatch"

MATCH_RANK = {
    MATCH_EXACT: 3,
    MATCH_GLOBAL_PHASE: 2,
    MATCH_SIGNATURE: 1,
    MATCH_MISMATCH: 0,
}


def match_at_least(match: str, floor: str) -> bool:
    return MATCH_RANK[match] >= MATCH_RANK[floor]


LocalPhases = tuple[complex, tuple[np.ndarray, ...]]


def compare_states(
    computed: PlainState, target: PlainState, tol: float = DEFAULT_TOL
) -> tuple[str, LocalPhases | None]:
    """Classify how the computed state relates to the target (both normalized).

    Returns (match, local_phases).  With a and b the normalized amplitudes,
    every class is an elementwise claim max_k |a_k - g_k b_k| <= tol:

    * exact: g = 1;
    * global_phase: g = c, one unit number;
    * signature: g_k = c * prod_s u_s(k_s), a global phase and one diagonal
      phase gate u_s per site, found by _local_phases or proved not to
      exist;
    * mismatch: none of these.

    Both norms are taken over the full vectors; every test then reads only
    the union of the two supports, where off it a and b are both zero, so
    each maximum and the first largest |b_k| are those of the full vectors.
    local_phases is (c, (u_0, ..., u_{S-1})) for global_phase (all u_s = 1)
    and signature, None otherwise.  Both states must have the same site
    dimensions, and the target must not be zero (ValueError otherwise).
    """
    if computed.dims != target.dims:
        raise ValueError(f"cannot compare dims {computed.dims} with {target.dims}")
    norm_a = computed.norm()
    if norm_a == 0.0:
        return MATCH_MISMATCH, None
    norm_b = target.norm()
    if norm_b == 0.0:
        raise ValueError("cannot compare with the zero target state")
    flat = np.flatnonzero((computed.amps != 0) | (target.amps != 0))
    a = computed.amps[flat] / norm_a
    b = target.amps[flat] / norm_b
    if np.max(np.abs(a - b)) <= tol:
        return MATCH_EXACT, None
    k = int(np.argmax(np.abs(b)))
    if abs(a[k]) > tol:
        phase = a[k] / b[k]
        if abs(abs(phase) - 1.0) <= tol and np.max(np.abs(a - phase * b)) <= tol:
            ones = tuple(np.ones(d, dtype=complex) for d in target.dims)
            return MATCH_GLOBAL_PHASE, (complex(phase), ones)
    # equal magnitudes are necessary for any diagonal unitary gates
    if np.max(np.abs(np.abs(a) - np.abs(b))) <= tol:
        gates = _local_phases(a, b, flat, target.dims, tol)
        if gates is not None:
            return MATCH_SIGNATURE, gates
    return MATCH_MISMATCH, None


def _local_phases(
    a: np.ndarray, b: np.ndarray, flat: np.ndarray, dims: tuple[int, ...], tol: float
) -> LocalPhases | None:
    """Gates (c, (u_0, ..., u_{S-1})) with |c| = |u_s(l)| = 1 and
    max_k |a_k - c prod_s u_s(k_s) b_k| <= tol, or None when none exist.

    a and b are amplitudes gathered at the ascending flat indices flat, which
    must hold every k where either is nonzero: off them the test holds for
    any gates.  On the support {k : |b_k| > tol} the gates must satisfy
    arg c + sum_s arg u_s(k_s) = arg(a_k / b_k) (mod 2 pi): an integer
    linear system whose matrix is the support's incidence matrix (a column
    for c and one per (site, level), a 1 where ket k has that level).  Its
    rows, lists of Python ints, are brought to echelon form, the triangular
    half of Hermite's normal form, by unimodular row operations (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4), each applied
    to the ratios' angles, Python floats, too.  The pivot rows give the
    angles by back-substitution over their nonzero entries, free columns
    at 0.  A row that reduces to zero is an integer relation among the
    ratios, which any gates satisfy; the back-substituted angles satisfy
    every pivot row, so they solve the whole system exactly when all such
    relations hold, and gates exist at all only if these do.  The
    elementwise test at the gathered indices decides, each ratio within the
    tolerance its amplitude leaves it.
    """
    support = np.flatnonzero(np.abs(b) > tol)
    # larger amplitudes first: their ratios are the sharpest pivots
    support = support[np.argsort(-np.abs(b[support]), kind="stable")]
    m = len(support)
    starts = np.cumsum((1,) + dims[:-1])
    ncols = 1 + sum(dims)
    kets = np.unravel_index(flat, dims)
    rows = []
    for cols in (starts + np.stack(kets, axis=-1)[support]).tolist():
        row = [0] * ncols
        row[0] = 1
        for col in cols:
            row[col] = 1
        rows.append(row)
    angle = np.angle(a[support] / b[support]).tolist()

    top, pivots = 0, []
    for col in range(ncols):
        if top == m:
            break
        while True:
            live = [i for i in range(top, m) if rows[i][col]]
            if not live:
                break
            # Euclid's step: the smallest entry leaves the smallest remainders
            p = min(live, key=lambda i: abs(rows[i][col]))
            rows[top], rows[p] = rows[p], rows[top]
            angle[top], angle[p] = angle[p], angle[top]
            pivot = rows[top]
            rest = [i for i in range(top + 1, m) if rows[i][col]]
            if not rest:
                break
            for i in rest:
                q = rows[i][col] // pivot[col]
                rows[i] = [x - q * y for x, y in zip(rows[i], pivot)]
                # reduced to [-pi, pi) so repeated steps keep the angles' precision
                angle[i] = (angle[i] - float(q) * angle[top] + math.pi) % (2 * math.pi) - math.pi
        if rows[top][col] != 0:
            pivots.append(col)
            top += 1

    theta = [0.0] * ncols
    for i in reversed(range(top)):
        col, row = pivots[i], rows[i]
        known = sum(row[j] * theta[j] for j in range(col + 1, ncols) if row[j])
        theta[col] = (angle[i] - known) / row[col]
    u = np.exp(1j * np.array(theta))
    c = complex(u[0])
    gates = tuple(u[s:s + d] for s, d in zip(starts, dims))
    g = c * gates[0][kets[0]]
    for gate, ket in zip(gates[1:], kets[1:]):
        g = g * gate[ket]
    if np.max(np.abs(a - g * b)) <= tol:
        return c, gates
    return None


@dataclass
class Recipe:
    """A cataloged construction before execution.

    factors are the states whose tensor product the weight is integrated
    against; the product itself, state, is built on first read.
    """

    entry_id: str
    params: dict
    ctx: AlgebraContext
    factors: tuple[GradedState, ...]
    weight: AlgebraElement
    differentials: tuple[Variable, ...]
    target: PlainState
    phase_flag: str | None = None
    mismatch_flag: str | None = None
    extra_flags: tuple[str, ...] = ()
    notes: str = ""

    @functools.cached_property
    def state(self) -> GradedState:
        """The tensor product of the factors, built once, on first read."""
        return tensor(self.factors)

    @functools.cached_property
    def solver_basis(self) -> MonomialBasis:
        """Full monomial basis of the differentials, for the solver cross-check:
        its variables and radix, whose monomials are boxed on first read."""
        return MonomialBasis(self.ctx, self.differentials)


@dataclass
class ConstructionResult:
    """Computed state, target comparison, entanglement data and solver check."""

    entry_id: str
    params: dict
    computed: PlainState
    target: PlainState
    match: str
    report: EntanglementReport
    solver: WeightSolution
    flags: list[str] = field(default_factory=list)
    grassmann_residual: float = 0.0
    norm_ratio: float = 1.0
    notes: str = ""
    # compare_states' gates for global_phase and signature matches; not serialized
    local_phases: LocalPhases | None = field(default=None, repr=False, compare=False)


# -- target state helpers -----------------------------------------------------


def plain(dims: Sequence[int], terms: dict) -> PlainState:
    return PlainState.from_terms(dims, terms)


def ghz_target(nsites: int) -> PlainState:
    amp = 1.0 / math.sqrt(2.0)
    return plain((2,) * nsites, {(0,) * nsites: amp, (1,) * nsites: amp})


def w_target(nsites: int) -> PlainState:
    amp = 1.0 / math.sqrt(nsites)
    terms = {}
    for k in range(nsites):
        ket = tuple(1 if i == k else 0 for i in range(nsites))
        terms[ket] = amp
    return plain((2,) * nsites, terms)


def cluster4_target(sign: int) -> PlainState:
    return plain(
        (2, 2, 2, 2),
        {
            (0, 0, 0, 0): sign * 0.5,
            (0, 0, 1, 1): 0.5,
            (1, 1, 0, 0): 0.5,
            (1, 1, 1, 1): -sign * 0.5,
        },
    )


def diagonal_target(n: int) -> PlainState:
    amp = 1.0 / math.sqrt(n)
    return plain((n, n), {(i, i): amp for i in range(n)})


# -- recipe builders ----------------------------------------------------------


def _integer(name: str, value) -> int:
    """value as a Python int; a bool, a float or any other non-integer raises
    ValueError (a bool equals 1 or 0 but is no count or power)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_sign(sign: int) -> int:
    sign = _integer("sign", sign)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def _bell_psi(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(2)
    v = ctx.theta(1)
    plus = tensor([coherent_state(ctx, v, 2, 1), coherent_state(ctx, v, 2, sign)])
    minus = tensor([coherent_state(ctx, v, 2, -1), coherent_state(ctx, v, 2, -sign)])
    factors = (plus - minus,)
    weight = ctx.scalar(-sign / (2.0 * math.sqrt(2.0)))
    amp = 1.0 / math.sqrt(2.0)
    target = plain((2, 2), {(0, 1): amp, (1, 0): sign * amp})
    return Recipe(
        "bell_psi_pm", {"sign": sign}, ctx, factors, weight, (v,), target,
        phase_flag="QUBIT_SIGNS", mismatch_flag="QUBIT_SIGNS",
    )


def _bell_phi(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(2)
    t, tb = ctx.theta(1), ctx.theta_bar(1)
    factors = (coherent_state(ctx, tb, 2), coherent_state(ctx, t, 2))
    # exp(sign*theta*tbar) truncates to 1 + sign*theta*tbar by nilpotency
    weight = (sign / math.sqrt(2.0)) * (ctx.one() + sign * ctx.word([t, tb]))
    amp = 1.0 / math.sqrt(2.0)
    target = plain((2, 2), {(0, 0): amp, (1, 1): sign * amp})
    return Recipe(
        "bell_phi_pm", {"sign": sign}, ctx, factors, weight, (tb, t), target,
        phase_flag="QUBIT_SIGNS", mismatch_flag="QUBIT_SIGNS",
    )


def _w_n(n: int = 3) -> Recipe:
    n = _integer("n", n)
    if n < 2:
        raise ValueError("W state needs at least two sites")
    ctx = AlgebraContext(2)
    v = ctx.theta(1)
    factors = (coherent_state(ctx, v, 2),) * n
    weight = ctx.scalar(-1.0 / math.sqrt(n))
    return Recipe(
        "w_n", {"n": n}, ctx, factors, weight, (v,), w_target(n),
        phase_flag="QUBIT_SIGNS", mismatch_flag="QUBIT_SIGNS",
    )


def _ghz_n(n: int = 3) -> Recipe:
    n = _integer("n", n)
    if n < 2:
        raise ValueError("GHZ state needs at least two sites")
    ctx = AlgebraContext(2)
    vs = [ctx.theta(i) for i in range(1, n + 1)]
    factors = tuple(coherent_state(ctx, vs[k], 2) for k in range(n - 1, -1, -1))
    weight = (1.0 / math.sqrt(2.0)) * (
        ctx.scalar((-1.0) ** (n // 2)) + ctx.word(list(reversed(vs)))
    )
    return Recipe(
        "ghz_n", {"n": n}, ctx, factors, weight, tuple(vs), ghz_target(n),
        phase_flag="QUBIT_SIGNS", mismatch_flag="QUBIT_SIGNS",
    )


def _cluster4(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(2)
    t1, t2, t3, t4 = (ctx.theta(i) for i in range(1, 5))
    factors = tuple(coherent_state(ctx, v, 2) for v in (t1, t2, t3, t4))
    weight = 0.5 * (
        sign * ctx.word([t4, t3, t2, t1])
        + ctx.word([t2, t1])
        + ctx.word([t4, t3])
        - sign * ctx.one()
    )
    return Recipe(
        "cluster4_pm", {"sign": sign}, ctx, factors, weight,
        (t1, t2, t3, t4), cluster4_target(sign),
        phase_flag="QUBIT_SIGNS", mismatch_flag="QUBIT_SIGNS",
    )


def _qutrit_pair(ctx: AlgebraContext) -> tuple[tuple[GradedState, ...], Variable, Variable]:
    t1, t2 = ctx.theta(1), ctx.theta(2)
    return (coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)), t1, t2


def _qutrit_psi(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(3)
    factors, t1, t2 = _qutrit_pair(ctx)
    q = ctx.q
    weight = (1.0 / math.sqrt(3.0)) * (
        ctx.word([(t2, 2), (t1, 2)]) + sign * q**2 * ctx.word([t1, t2]) + 2 * q
    )
    amp = 1.0 / math.sqrt(3.0)
    target = plain((3, 3), {(0, 0): amp, (1, 1): sign * amp, (2, 2): amp})
    return Recipe(
        "qutrit_psi_pm", {"sign": sign}, ctx, factors, weight, (t1, t2), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qutrit_phi(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(3)
    factors, t1, t2 = _qutrit_pair(ctx)
    q = ctx.q
    rt2 = math.sqrt(2.0)
    weight = (1.0 / math.sqrt(3.0)) * (
        rt2 * ctx.gen(t1, 2) + sign * q**2 * ctx.word([t1, t2]) + rt2 * ctx.gen(t2, 2)
    )
    amp = 1.0 / math.sqrt(3.0)
    target = plain((3, 3), {(0, 2): amp, (1, 1): sign * amp, (2, 0): amp})
    return Recipe(
        "qutrit_phi_pm", {"sign": sign}, ctx, factors, weight, (t1, t2), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qutrit_sub_00_22(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(3)
    factors, t1, t2 = _qutrit_pair(ctx)
    weight = (1.0 / math.sqrt(2.0)) * (
        ctx.word([(t2, 2), (t1, 2)]) + sign * 2 * ctx.q
    )
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3), {(0, 0): amp, (2, 2): sign * amp})
    return Recipe(
        "qutrit_sub_00_22", {"sign": sign}, ctx, factors, weight, (t1, t2), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qutrit_sub_00_11(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(3)
    factors, t1, t2 = _qutrit_pair(ctx)
    weight = (1.0 / math.sqrt(2.0)) * (
        ctx.word([(t2, 2), (t1, 2)]) + sign * ctx.q**2 * ctx.word([t1, t2])
    )
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3), {(0, 0): amp, (1, 1): sign * amp})
    return Recipe(
        "qutrit_sub_00_11", {"sign": sign}, ctx, factors, weight, (t1, t2), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qutrit_biseparable(sign: int = 1) -> Recipe:
    sign = _check_sign(sign)
    ctx = AlgebraContext(3)
    t1, t2, t3 = (ctx.theta(i) for i in range(1, 4))
    factors = tuple(coherent_state(ctx, v, 3) for v in (t1, t2, t3))
    weight = (1.0 / math.sqrt(3.0)) * (
        ctx.word([(t3, 2), (t2, 2), (t1, 2)])
        + sign * ctx.qp(-1) * ctx.word([(t1, 2), (t2, 1), (t3, 1)])
    )
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3, 3), {(0, 0, 0): amp, (0, 1, 1): sign * amp})
    return Recipe(
        "qutrit_biseparable", {"sign": sign}, ctx, factors, weight,
        (t1, t2, t3), target, phase_flag="PHASE_CONVENTION",
    )


def _qutrit_psi22(omega_power: int = 1) -> Recipe:
    omega_power = _integer("omega_power", omega_power)  # else q**power is no cube root of unity
    ctx = AlgebraContext(3)
    factors, t1, t2 = _qutrit_pair(ctx)
    q = ctx.q
    omega = ctx.qp(omega_power)  # any cube root of unity
    rt2 = math.sqrt(2.0)
    weight = (1.0 / math.sqrt(3.0)) * (
        q**2 * ctx.word([(t1, 2), (t2, 1)])
        + rt2 * omega * ctx.gen(t1)
        + rt2 * omega**2 * ctx.gen(t2, 2)
    )
    amp = 1.0 / math.sqrt(3.0)
    target = plain(
        (3, 3), {(0, 1): amp, (1, 2): omega * amp, (2, 0): omega**2 * amp}
    )
    return Recipe(
        "qutrit_psi22", {"omega_power": omega_power}, ctx, factors, weight,
        (t1, t2), target, phase_flag="PHASE_CONVENTION",
    )


def _qutrit_squeezed_00_22() -> Recipe:
    ctx = AlgebraContext(3)
    xi, xib = ctx.theta(1), ctx.theta_bar(1)
    factors = (squeezed_state_symmetric(ctx, xi),) * 2
    qb = ctx.qp(-1)
    weight = (1.0 / math.sqrt(2.0)) * (
        2 * qb * ctx.gen(xib, 2)
        - 16 * qb * ctx.one()
        - 2 * qb * ctx.word([xi, xib])
        + ctx.word([(xib, 2), (xi, 2)])
    )
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3), {(0, 0): amp, (2, 2): amp})
    return Recipe(
        "qutrit_squeezed_00_22", {}, ctx, factors, weight, (xib, xi), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qutrit_mixed_02_20() -> Recipe:
    ctx = AlgebraContext(3)
    t = ctx.theta(1)
    factors = (squeezed_state_symmetric(ctx, t), coherent_state(ctx, t, 3))
    weight = ctx.q + ctx.gen(t)
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3), {(0, 2): amp, (2, 0): amp})
    return Recipe(
        "qutrit_mixed_02_20", {}, ctx, factors, weight, (t,), target,
        phase_flag="PHASE_CONVENTION",
        mismatch_flag="MIXED_RECIPE",
    )


def _qutrit_squeezed_exp() -> Recipe:
    ctx = AlgebraContext(3)
    xi = ctx.theta(1)
    factors = (squeezed_state_exp(ctx, xi, 3),) * 2
    weight = (1.0 / math.sqrt(2.0)) * (ctx.one() + ctx.gen(xi, 2))
    amp = 1.0 / math.sqrt(2.0)
    target = plain((3, 3), {(0, 0): amp, (2, 2): amp})
    return Recipe(
        "qutrit_squeezed_exp", {}, ctx, factors, weight, (xi,), target,
        phase_flag="PHASE_CONVENTION",
    )


def _qudit_mes(n: int = 3) -> Recipe:
    """Diagonal maximally entangled qudit pair from two coherent factors.

    The weight term with monomial theta1^(n-1-k) theta2^(n-1-k) pairs with
    the diagonal amplitude on |kk>, so its coefficient carries 1/c_kk and
    the phase conj(q)**((n-1-k)(n-1) + k^2).  A variant with c and the
    phase indexed by n-1-k instead of k does not produce uniform
    magnitudes; see the QUDIT_WEIGHT_INDEXING note.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError("qudit MES needs n >= 2")
    if n > 171:  # the coherent factors and the weight term k = n-1 carry (n-1)!
        raise ValueError(f"qudit MES needs n <= 171, got n={n}: (n-1)! overflows a float")
    ctx = AlgebraContext(n)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    factors = (coherent_state(ctx, t1, n), coherent_state(ctx, t2, n))
    weight = ctx.zero()
    for k in range(n):
        j = n - 1 - k
        # c_kk = q**(-2k^2)/k!  =>  1/c_kk = k! * q**(2k^2)
        qexp = 2 * k * k - (j * (n - 1) + k * k)
        coeff = (1.0 / math.sqrt(n)) * math.factorial(k) * ctx.qp(qexp)
        weight = weight + coeff * ctx.word([(t1, j), (t2, j)])
    return Recipe(
        "qudit_mes_n", {"n": n}, ctx, factors, weight, (t1, t2), diagonal_target(n),
        phase_flag="PHASE_CONVENTION", extra_flags=("QUDIT_WEIGHT_INDEXING",),
    )


def _qudit_squeezed_mes(n: int = 3) -> Recipe:
    """One-variable squeezed-pair synthesis of the even diagonal MES.

    Weight powers n-2i-1 go negative for 2i+1 > n; those monomials are
    dropped and reported.  Target kets |2k> with 2k > n-1 do not exist in
    the level space, so the reachable even diagonal is used as target.
    """
    n = _integer("n", n)
    if n < 2:
        raise ValueError("squeezed qudit MES needs n >= 2")
    if n > 198:  # the weight term i = (n-1)//2 carries (i!)**2, past the float range from 99
        raise ValueError(f"squeezed qudit MES needs n <= 198, got n={n}: (i!)**2 overflows a float")
    ctx = AlgebraContext(n)
    xi = ctx.theta(1)
    factors = (squeezed_state_exp(ctx, xi, n),) * 2
    weight = ctx.zero()
    infeasible = []
    for i in range(n):
        power = n - 2 * i - 1
        if power < 0:
            infeasible.append(i)
            continue
        # d_ii = conj(q)**(2i(i-1) + (2i-1)i) / (i!)^2
        dexp = 2 * i * (i - 1) + (2 * i - 1) * i
        coeff = (1.0 / math.sqrt(n)) * (math.factorial(i) ** 2) * ctx.qp(dexp)
        weight = weight + coeff * ctx.word([(xi, power)])
    reachable = [k for k in range(n) if 2 * k <= n - 1]
    amp = 1.0 / math.sqrt(n)
    target = plain((n, n), {(2 * k, 2 * k): amp for k in reachable})
    notes = ""
    if infeasible:
        notes = (
            f"weight powers n-2i-1 are negative for i in {infeasible}; "
            f"diagonal kets beyond |{n - 1}> are outside the level space"
        )
    return Recipe(
        "qudit_squeezed_mes_n", {"n": n}, ctx, factors, weight, (xi,), target,
        phase_flag="PHASE_CONVENTION", extra_flags=("SQUEEZED_QUDIT_WEIGHT",), notes=notes,
    )


_BUILDERS: dict[str, Callable[..., Recipe]] = {
    "bell_psi_pm": _bell_psi,
    "bell_phi_pm": _bell_phi,
    "w_n": _w_n,
    "ghz_n": _ghz_n,
    "cluster4_pm": _cluster4,
    "qutrit_psi_pm": _qutrit_psi,
    "qutrit_phi_pm": _qutrit_phi,
    "qutrit_sub_00_22": _qutrit_sub_00_22,
    "qutrit_sub_00_11": _qutrit_sub_00_11,
    "qutrit_biseparable": _qutrit_biseparable,
    "qutrit_psi22": _qutrit_psi22,
    "qutrit_squeezed_00_22": _qutrit_squeezed_00_22,
    "qutrit_mixed_02_20": _qutrit_mixed_02_20,
    "qutrit_squeezed_exp": _qutrit_squeezed_exp,
    "qudit_mes_n": _qudit_mes,
    "qudit_squeezed_mes_n": _qudit_squeezed_mes,
}


def catalog_ids() -> list[str]:
    return sorted(_BUILDERS)


@functools.cache
def _parameters(builder: Callable[..., Recipe]) -> tuple[str, ...]:
    return tuple(inspect.signature(builder).parameters)


def build_recipe(entry_id: str, **params) -> Recipe:
    """The recipe of a cataloged entry: KeyError for an unknown entry,
    TypeError for a parameter its builder does not take."""
    try:
        builder = _BUILDERS[entry_id]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}; see catalog_ids()") from None
    takes = _parameters(builder)
    unknown = [name for name in params if name not in takes]
    if unknown:
        raise TypeError(
            f"{entry_id} takes {', '.join(takes) or 'no parameters'}, not {', '.join(unknown)}"
        )
    return builder(**params)


def catalog_construct(
    entry_id: str, tol: float = DEFAULT_TOL, solver_check: bool = True, **params
) -> ConstructionResult:
    """Run a cataloged recipe and verify it against its target.

    Without the solver check the weight is integrated against the factors
    through the pruned fold (entangle._integrate), so the full product,
    recipe.state, is never built.  The solve reads every row of the
    product, so with the check the integral reads recipe.state, and the
    product is folded once per call.  Either way the integrated table is
    the same, bitwise.
    """
    recipe = build_recipe(entry_id, **params)
    spec = IntegralSpec(recipe.weight, recipe.differentials)
    if solver_check:
        graded = integrate_graded(spec, recipe.state)
    else:
        graded = _integrate(spec, recipe.factors)
    residual = graded.grassmann_part_norm()
    computed = graded.plain_projection()

    flags = list(recipe.extra_flags)
    if residual > tol:
        flags.append("GRASSMANN_RESIDUE")

    match, local_phases = compare_states(computed, recipe.target, tol)
    if match in (MATCH_GLOBAL_PHASE, MATCH_SIGNATURE) and recipe.phase_flag:
        flags.append(recipe.phase_flag)
    if match == MATCH_MISMATCH and recipe.mismatch_flag:
        flags.append(recipe.mismatch_flag)

    norm_ratio = computed.norm() / recipe.target.norm()
    if abs(norm_ratio - 1.0) > tol:
        flags.append("PREFACTOR_NORM")

    report = entanglement_report(computed.normalized(), tol=tol)

    solver = None
    if solver_check:
        solver = solve_weight(
            recipe.state,
            recipe.differentials,
            recipe.target.normalized(),
            recipe.solver_basis,
            tol=tol,
        )

    return ConstructionResult(
        entry_id=entry_id,
        params=recipe.params,
        computed=computed,
        target=recipe.target,
        match=match,
        report=report,
        solver=solver,
        flags=flags,
        grassmann_residual=residual,
        norm_ratio=float(norm_ratio),
        notes=recipe.notes,
        local_phases=local_phases,
    )
