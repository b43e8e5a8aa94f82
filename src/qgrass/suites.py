"""Deterministic verification suites over the algebra, catalog and boson layers.

Each suite returns a list of SuiteItem records with status 'pass',
'flagged' or 'fail'.  Flagged items are known discrepancies (each carries
ids from the issues ledger) and do not fail a run; a 'fail' is an
unexpected regression.  All randomness derives from an explicit seed: the
algebra suite draws from one ``random.Random(seed)`` per call, and the
other suites draw nothing.

The reordering oracle here is deliberately independent of the production
normal-ordering path: it sorts explicit variable words one random
adjacent transposition at a time, using only the two-variable exchange
rule, so confluence checks compare two genuinely different computations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    Variable,
    normal_order,
    q_power,
)
from .boson import (
    coherent_fock,
    hybrid_purity,
    inner,
    naive_super_matrix,
    orthonormal_pair,
    overlap_exact,
    schmidt_coefficients,
    super_state,
)
from .catalog import (
    MATCH_EXACT,
    MATCH_RANK,
    catalog_construct,
)
from .entangle import bipartition_spectrum, reduced_density, schmidt_rank
from .qstate import check_squeeze_closure, check_su_q2_closure


@dataclass
class SuiteItem:
    item_id: str
    status: str  # pass | flagged | fail
    payload: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)


# -- random element machinery -------------------------------------------------


def _randrange(bits, a: int, b: int) -> int:
    """rng.randrange(a, b) for ints a < b, bits being rng.getrandbits: a plus a
    rejection draw of (b - a).bit_length() bits, randrange's draws and value."""
    m = b - a
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return a + r


def _gauss_pair(rng: random.Random) -> complex:
    """complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)), bit for bit: gauss's
    Box-Muller pair from two random() calls, each part as 0.0 + z (a -0.0 reads
    0.0).  It holds while rng.gauss_next is None, as in the suites: every gauss
    call there comes in such a pair, from a fresh random.Random(seed)."""
    x2pi = rng.random() * math.tau
    g2rad = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
    return complex(0.0 + math.cos(x2pi) * g2rad, 0.0 + math.sin(x2pi) * g2rad)


# the variables the suite draws: _VARIABLES[index - 1][barred]
_VARIABLES = tuple((Variable(i), Variable(i, barred=True)) for i in (1, 2, 3))


def _random_variable(rng: random.Random) -> Variable:
    """Variable(randrange(1, 4), random() < 0.5), read from _VARIABLES."""
    return _VARIABLES[_randrange(rng.getrandbits, 0, 3)][rng.random() < 0.5]


def _random_element(
    ctx: AlgebraContext,
    rng: random.Random,
    max_terms: int = 3,
    kind: bool | None = None,
) -> AlgebraElement:
    """Random sum of monomials; kind restricts to barred or unbarred variables.

    Draws from a ``random.Random`` as ``randrange`` and ``gauss`` would: counts
    and exponents by _randrange, each coefficient by _gauss_pair.
    """
    bits, unit, n = rng.getrandbits, rng.random, ctx.n
    terms: dict[Monomial, complex] = {}
    for _ in range(_randrange(bits, 1, max_terms + 1)):
        blocks = []
        for _ in range(_randrange(bits, 0, 3)):  # _random_variable's draws, kind overriding barred
            pair, barred = _VARIABLES[_randrange(bits, 0, 3)], unit() < 0.5
            blocks.append((pair[barred if kind is None else kind], _randrange(bits, 1, n)))
        coeff = _gauss_pair(rng)
        qexp, mono = normal_order(blocks, ctx.phase_table, n)
        if mono is not None:
            terms[mono] = terms.get(mono, 0.0) + q_power(n, qexp) * coeff
    return AlgebraElement._adopt(ctx, terms)


def _random_word(rng: random.Random, max_len: int = 6) -> list[Variable]:
    return [_random_variable(rng) for _ in range(_randrange(rng.getrandbits, 1, max_len + 1))]


def oracle_reorder(word: list[Variable], ctx: AlgebraContext, rng: random.Random):
    """Sort a word by random adjacent transpositions, tracking the q-phase.

    Returns (q_exponent, Monomial) or (0, None) on nilpotent collapse.
    Independent of normal_order: operates on flat variable lists and only
    ever applies the two-variable exchange rule.  Each step swaps the pair
    ``rng.choice(inversions)`` picks; any rng with a ``choice`` method works.
    """
    w = list(word)
    table = ctx.phase_table
    qexp = 0
    while True:
        inversions = [
            i for i in range(len(w) - 1) if w[i + 1] < w[i]
        ]
        if not inversions:
            break
        i = rng.choice(inversions)
        a, b = w[i], w[i + 1]  # a > b, rewrite a*b = q**(-eps(b,a)) b*a
        qexp -= table.eps(b, a)
        w[i], w[i + 1] = b, a
    counts: dict[Variable, int] = {}
    for v in w:
        counts[v] = counts.get(v, 0) + 1
        if counts[v] >= ctx.n:
            return 0, None
    mono = Monomial(
        tuple(sorted(counts.items(), key=lambda ve: ve[0].sort_key))
    )
    return qexp % ctx.n, mono


# -- algebra suite -------------------------------------------------------------


def suite_algebra(
    seed: int = 0,
    tol: float = 1e-9,
    confluence_tol: float = 1e-12,
    cases: int = 1000,
    grades: tuple[int, ...] = (2, 3, 4, 5),
) -> list[SuiteItem]:
    rng = random.Random(seed)
    per = max(1, math.ceil(cases / 5))
    contexts = [AlgebraContext(n) for n in grades]

    # one case function per invariant: ctx -> residual, drawing from rng

    def nilpotency(ctx: AlgebraContext) -> float:  # v^k * (v^(n-k) * a) == 0
        v = _random_variable(rng)
        k = _randrange(rng.getrandbits, 1, ctx.n)
        a = _random_element(ctx, rng)
        return (ctx.gen(v, k) * (ctx.gen(v, ctx.n - k) * a)).norm()

    def associativity(ctx: AlgebraContext) -> float:
        a, b, c = (_random_element(ctx, rng) for _ in range(3))
        return ((a * b) * c - a * (b * c)).norm()

    def confluence(ctx: AlgebraContext) -> float:  # two oracle runs and normal_order agree
        word = _random_word(rng)
        e1, m1 = oracle_reorder(word, ctx, rng)
        e2, m2 = oracle_reorder(word, ctx, rng)
        e3, m3 = normal_order([(v, 1) for v in word], ctx.phase_table, ctx.n)
        if (m1 != m2) or (m1 != m3):
            return math.inf
        if m1 is None:
            return 0.0
        p1, p2, p3 = (q_power(ctx.n, e) for e in (e1, e2, e3))
        return max(abs(p1 - p2), abs(p1 - p3))

    def integration_linearity(ctx: AlgebraContext) -> float:
        a, b = _random_element(ctx, rng), _random_element(ctx, rng)
        alpha, beta = _gauss_pair(rng), _gauss_pair(rng)
        v = _random_variable(rng)
        lhs = (alpha * a + beta * b).berezin_integrate(v)
        rhs = alpha * a.berezin_integrate(v) + beta * b.berezin_integrate(v)
        return (lhs - rhs).norm()

    def conjugation(ctx: AlgebraContext) -> float:
        # involution on arbitrary elements, anti-homomorphism on same-kind
        # operands (the scope on which the dagger is consistent; see the
        # CONJUGATION_OBSTRUCTION item below)
        a = _random_element(ctx, rng)
        barred = rng.random() < 0.5
        x = _random_element(ctx, rng, kind=barred)
        y = _random_element(ctx, rng, kind=barred)
        return max(
            (a.conjugate().conjugate() - a).norm(),
            ((x * y).conjugate() - y.conjugate() * x.conjugate()).norm(),
        )

    items: list[SuiteItem] = []
    for item_id, case, bound in (
        ("algebra.nilpotency", nilpotency, tol),
        ("algebra.associativity", associativity, tol),
        ("algebra.confluence", confluence, confluence_tol),
        ("algebra.integration_linearity", integration_linearity, confluence_tol),
        ("algebra.conjugation", conjugation, tol),
    ):
        worst = 0.0
        for i in range(per):
            worst = max(worst, case(contexts[i % len(contexts)]))
        status = "pass" if worst <= bound else "fail"
        items.append(SuiteItem(item_id, status, {"cases": per, "max_residual": worst}))

    # the dagger cannot be a global anti-homomorphism for n > 2: the
    # same-index pair deviates by exactly q^2
    deviations = {}
    for ctx in contexts:
        t, tb = ctx.theta(1), ctx.theta_bar(1)
        a, b = ctx.gen(t), ctx.gen(tb)
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        dev = (lhs - rhs).norm()
        expected = abs(q_power(ctx.n, 2) - 1.0)
        deviations[ctx.n] = {"deviation": dev, "expected": expected}
    as_predicted = all(
        abs(d["deviation"] - d["expected"]) <= tol for d in deviations.values()
    )
    any_obstruction = any(d["deviation"] > tol for d in deviations.values())
    items.append(
        SuiteItem(
            "algebra.conjugation_mixed_pairs",
            ("flagged" if any_obstruction else "pass") if as_predicted else "fail",
            {"per_grade": deviations},
            flags=["CONJUGATION_OBSTRUCTION"] if any_obstruction else [],
        )
    )
    return items


# -- closure suite -------------------------------------------------------------


def suite_closure(tol: float = 1e-12) -> list[SuiteItem]:
    items: list[SuiteItem] = []

    r2 = check_su_q2_closure(2, tol=tol)
    items.append(
        SuiteItem(
            "closure.su_q2.d2",
            "pass" if r2.closes else "fail",
            {"lambda": r2.constants["lambda"], "residual": r2.residuals["joint"]},
        )
    )

    r3 = check_su_q2_closure(3, tol=tol)
    lam_ok = abs(r3.constants["lambda"] - (-3 * r3.q)) <= 1e-12
    items.append(
        SuiteItem(
            "closure.su_q2.d3",
            "pass" if (r3.closes and lam_ok) else "fail",
            {
                "lambda": r3.constants["lambda"],
                "expected_lambda": -3 * r3.q,
                "residual": r3.residuals["joint"],
            },
        )
    )

    r4 = check_su_q2_closure(4, tol=tol)
    items.append(
        SuiteItem(
            "closure.su_q2.d4",
            "pass" if (not r4.closes and r4.residuals["joint"] > 0.1) else "fail",
            {"lambda": r4.constants["lambda"], "residual": r4.residuals["joint"]},
        )
    )

    rs = check_squeeze_closure(3, tol=tol)
    mu, nu = rs.constants["mu"], rs.constants["nu"]
    ok = rs.closes and abs(mu + nu) <= 1e-12
    items.append(
        SuiteItem(
            "closure.squeeze.d3",
            ("flagged" if rs.flags else "pass") if ok else "fail",
            {
                "mu": mu,
                "nu": nu,
                "residual_mu": rs.residuals["mu"],
                "residual_nu": rs.residuals["nu"],
            },
            flags=list(rs.flags),
        )
    )
    return items


# -- catalog suite --------------------------------------------------------------

# Regression baseline: worst acceptable match level per entry under the
# pinned conventions (frozen from verified runs; anything worse fails).
CATALOG_RUNS: list[tuple[str, dict, str]] = (
    [("bell_psi_pm", {"sign": s}, "signature") for s in (1, -1)]
    + [("bell_phi_pm", {"sign": s}, "signature") for s in (1, -1)]
    + [("w_n", {"n": n}, "signature") for n in range(2, 7)]
    + [("ghz_n", {"n": 2}, "signature"), ("ghz_n", {"n": 3}, "exact"),
       ("ghz_n", {"n": 4}, "exact"), ("ghz_n", {"n": 5}, "signature"),
       ("ghz_n", {"n": 6}, "signature")]
    + [("cluster4_pm", {"sign": s}, "signature") for s in (1, -1)]
    + [("qutrit_psi_pm", {"sign": s}, "exact") for s in (1, -1)]
    + [("qutrit_phi_pm", {"sign": s}, "exact") for s in (1, -1)]
    + [("qutrit_sub_00_22", {"sign": s}, "exact") for s in (1, -1)]
    + [("qutrit_sub_00_11", {"sign": s}, "exact") for s in (1, -1)]
    + [("qutrit_biseparable", {"sign": s}, "signature") for s in (1, -1)]
    + [("qutrit_psi22", {}, "exact")]
    + [("qutrit_squeezed_00_22", {}, "signature")]
    + [("qutrit_mixed_02_20", {}, "mismatch")]
    + [("qutrit_squeezed_exp", {}, "signature")]
    + [("qudit_mes_n", {"n": n}, "exact") for n in range(2, 6)]
    + [("qudit_squeezed_mes_n", {"n": n}, "exact") for n in (2, 3, 4)]
    + [("qudit_squeezed_mes_n", {"n": 5}, "mismatch")]
)


def _item_id(entry_id: str, params: dict) -> str:
    if not params:
        return f"catalog.{entry_id}"
    suffix = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"catalog.{entry_id}[{suffix}]"


def suite_catalog(tol: float = 1e-9) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for entry_id, params, floor in CATALOG_RUNS:
        result = catalog_construct(entry_id, tol=tol, **params)
        hard_fail = MATCH_RANK[result.match] < MATCH_RANK[floor]
        payload = {
            "match": result.match,
            "purity": result.report.purity,
            "max_entangled": result.report.max_entangled,
            "norm_ratio": result.norm_ratio,
            "grassmann_residual": result.grassmann_residual,
            "solver_residual": result.solver.residual,
            "solver_feasible": result.solver.feasible,
        }

        # hard expectations beyond the match floor: a computed state that is not
        # maximally entangled fails if its target is, by a dense check of the
        # target that is independent of entanglement_report
        if not result.report.max_entangled:
            target = result.target.normalized()
            if all(all(abs(lam - 1.0 / d) <= tol for lam in np.linalg.eigvalsh(
                    reduced_density(target, [i]).entries)) for i, d in enumerate(target.dims)):
                hard_fail = True
                payload["mes_expected"] = True

        if entry_id == "cluster4_pm":
            dev = max(
                float(np.max(np.abs(
                    reduced_density(result.computed, [i]).entries - np.eye(2) / 2
                )))
                for i in range(4)
            )
            payload["max_rdm_deviation"] = dev
            if dev > tol:
                hard_fail = True

        if entry_id == "qutrit_biseparable":
            rank0 = schmidt_rank(bipartition_spectrum(result.computed, [0]), tol=1e-6)
            s1 = bipartition_spectrum(result.computed, [1])
            s2 = bipartition_spectrum(result.computed, [2])
            payload["cut0_rank"] = rank0
            ok = (
                rank0 == 1
                and abs(s1[0] - s1[1]) <= tol
                and abs(s2[0] - s2[1]) <= tol
            )
            if not ok:
                hard_fail = True

        if entry_id == "ghz_n" and abs(result.report.purity) > tol:
            hard_fail = True
        if entry_id == "w_n":
            n = params["n"]
            expected = ((n - 2) / n) ** 2
            if abs(result.report.purity - expected) > tol:
                hard_fail = True
            payload["expected_purity"] = expected

        if hard_fail:
            status = "fail"
        elif result.match == MATCH_EXACT and not result.flags:
            status = "pass"
        else:
            status = "flagged"
        items.append(SuiteItem(_item_id(entry_id, params), status, payload, list(result.flags)))
    return items


# -- boson suite -----------------------------------------------------------------


def suite_boson(tol: float = 1e-9, cutoff: int = 40) -> list[SuiteItem]:
    items: list[SuiteItem] = []

    grid = [complex(re, im) for re in (-1.4, -0.7, 0.0, 0.7, 1.4)
            for im in (-1.4, -0.7, 0.0, 0.7, 1.4)]
    vectors = [coherent_fock(a, cutoff) for a in grid]
    worst = 0.0
    for a, fa in zip(grid, vectors):
        for b, fb in zip(grid, vectors):
            worst = max(worst, abs(inner(fa, fb) - overlap_exact(a, b)))
    items.append(
        SuiteItem(
            "boson.overlap_grid",
            "pass" if worst <= tol else "fail",
            {"pairs": len(grid) ** 2, "max_error": worst, "cutoff": cutoff},
        )
    )

    pairs = [(1.0, -1.0), (0.5 + 0.5j, -0.25), (2.0, 0.0), (1.0j, 1.0)]
    worst_orth = 0.0
    worst_n1 = 0.0
    for a, b in pairs:
        b0, b1, n1 = orthonormal_pair(a, b, cutoff)
        worst_orth = max(worst_orth, abs(inner(b0, b1)), abs(b1.norm() - 1.0))
        expected_n1 = math.sqrt(1.0 - abs(overlap_exact(a, b)) ** 2)
        worst_n1 = max(worst_n1, abs(n1 - expected_n1))
    items.append(
        SuiteItem(
            "boson.orthonormal_pair",
            "flagged" if (worst_orth <= tol and worst_n1 <= tol) else "fail",
            {"max_orthogonality_error": worst_orth, "max_n1_error": worst_n1},
            flags=["N1_NORMALIZATION"],
        )
    )

    worst_pur = 0.0
    for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        state = super_state(kind, 1.2, -0.3, cutoff)
        worst_pur = max(worst_pur, abs(hybrid_purity(state)))
    items.append(
        SuiteItem(
            "boson.super_state_purity",
            ("flagged" if worst_pur <= tol else "fail"),
            {"max_purity": worst_pur},
            flags=["PHI_SUPER_WEIGHTS"],
        )
    )

    mat = naive_super_matrix("psi_plus", 0.8, 0.8, cutoff)
    rank = schmidt_rank(schmidt_coefficients(mat), tol=1e-6)
    sweep = []
    for a in (0.5, 1.0, 2.0, 3.0, 4.0):
        m = naive_super_matrix("psi_plus", a, 0.0, cutoff)
        probs = schmidt_coefficients(m) ** 2
        sweep.append(float(2.0 * np.sum(probs**2) - 1.0))
    decreasing = all(x > y for x, y in zip(sweep, sweep[1:]))
    items.append(
        SuiteItem(
            "boson.separable_limit",
            "pass" if (rank == 1 and decreasing and sweep[-1] < 1e-5) else "fail",
            {"equal_amplitude_rank": rank, "purity_sweep": sweep},
        )
    )
    return items


SUITES = {
    "algebra": lambda seed, tol: suite_algebra(seed=seed, tol=tol),
    "closure": lambda seed, tol: suite_closure(),
    "catalog": lambda seed, tol: suite_catalog(tol=tol),
    "boson": lambda seed, tol: suite_boson(tol=tol),
}


def run_suites(names: list[str], seed: int = 0, tol: float = 1e-9) -> list[SuiteItem]:
    items: list[SuiteItem] = []
    for name in names:
        items.extend(SUITES[name](seed, tol))
    return items
