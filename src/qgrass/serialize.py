"""JSON serialization for algebra elements, states and reports.

States use the schema

    {"grade_n": n, "sites": [d, ...],
     "terms": [{"coeff": [re, im], "monomial": {"theta_1": 2, ...},
                "ket": [m, ...]}]}

with monomials keyed by variable name; plain states carry empty
monomials.  Term order in the output is deterministic (sorted by ket,
then monomial).
"""

from __future__ import annotations

import numbers
import sys
from typing import Any

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    parse_variable,
)
from .entangle import MonomialBasis, WeightSolution
from .qstate import GradedState, LevelSpace, PlainState
from .catalog import ConstructionResult


def _c2pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _pair2c(pair: Any, what: str = "coeff") -> complex:
    """[re, im] as a complex; anything but a list of two finite, non-bool
    real numbers is a ValueError."""
    if not (
        isinstance(pair, list)
        and len(pair) == 2
        and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max  # rejects nan, infinities and ints beyond float
            for x in pair
        )
    ):
        raise ValueError(f"{what} must be [re, im], two finite real numbers, got {pair!r}")
    return complex(pair[0], pair[1])


def _integer(x: Any, what: str) -> int:
    """x as an int; a bool, a fractional number or a non-number is a ValueError."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _integers(x: Any, what: str, each: str) -> tuple[int, ...]:
    """x, which must be a list, as a tuple of ints; what names x in an error
    and each names its entries."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list of integers, got {x!r}")
    return tuple(_integer(v, each) for v in x)


def _objects(x: Any, what: str) -> list[dict]:
    """x, which must be a list of objects; anything else is a ValueError naming what."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list of objects, got {x!r}")
    for item in x:
        if not isinstance(item, dict):
            raise ValueError(f"every entry of {what} must be an object, got {item!r}")
    return x


def monomial_to_dict(mono: Monomial) -> dict[str, int]:
    return {v.name: e for v, e in mono.exps}


def monomial_from_dict(d: dict[str, int]) -> Monomial:
    """Monomial from {name: exponent}; anything but a dict is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a monomial must be an object of variable exponents, got {d!r}")
    pairs = sorted(
        (parse_variable(name), _integer(e, f"exponent of {name}")) for name, e in d.items()
    )
    if len({v for v, _ in pairs}) != len(pairs):
        raise ValueError(f"monomial {d!r} repeats a variable")
    return Monomial(pairs)


def element_to_dict(e: AlgebraElement) -> dict[str, Any]:
    terms = [
        {"coeff": _c2pair(c), "monomial": monomial_to_dict(m)}
        for m, c in sorted(e.terms.items(), key=lambda mc: str(mc[0]))
    ]
    return {"grade_n": e.ctx.n, "terms": terms}


def graded_to_dict(s: GradedState) -> dict[str, Any]:
    terms = [
        {
            "coeff": _c2pair(c),
            "monomial": monomial_to_dict(m),
            "ket": list(k),
        }
        for (m, k), c in sorted(s.terms.items(), key=lambda mk: (mk[0][1], str(mk[0][0])))
    ]
    return {"grade_n": s.ctx.n, "sites": list(s.space.dims), "terms": terms}


def graded_from_dict(d: dict[str, Any], ctx: AlgebraContext | None = None) -> GradedState:
    ctx = ctx or AlgebraContext(_integer(d["grade_n"], "grade_n"))
    space = LevelSpace(_integers(d["sites"], "state sites", "a site dimension"))
    terms: dict[tuple[Monomial, tuple[int, ...]], complex] = {}
    for t in _objects(d["terms"], "state terms"):
        mono = monomial_from_dict(t.get("monomial", {}))
        key = (mono, _integers(t["ket"], "a state ket", "a ket level"))
        terms[key] = terms.get(key, 0.0) + _pair2c(t["coeff"])
    return GradedState(ctx, space, terms)


def plain_to_dict(s: PlainState, grade_n: int | None = None) -> dict[str, Any]:
    terms = [
        {"coeff": _c2pair(c), "monomial": {}, "ket": list(k)}
        for k, c in sorted(s.terms(tol=0.0).items())
    ]
    return {"grade_n": grade_n, "sites": list(s.dims), "terms": terms}


def plain_from_dict(d: dict[str, Any], what: str = "state") -> PlainState:
    """The plain state of d; what names d in an error (a solve spec's "target")."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {d!r}")
    dims = _integers(d["sites"], f"{what} sites", "a site dimension")
    terms: dict[tuple[int, ...], complex] = {}
    for t in _objects(d["terms"], f"{what} terms"):
        if t.get("monomial"):
            raise ValueError("plain state cannot carry monomials")
        ket = _integers(t["ket"], f"a {what} ket", "a ket level")
        terms[ket] = terms.get(ket, 0.0) + _pair2c(t["coeff"])
    return PlainState.from_terms(dims, terms)


def solution_to_dict(sol: WeightSolution) -> dict[str, Any]:
    """A MonomialBasis is written from its exponent table, boxing no row."""
    if isinstance(sol.basis, MonomialBasis):
        names = [v.name for v in sol.basis.slots]
        basis = [{name: e for name, e in zip(names, row) if e} for row in sol.basis.exps.tolist()]
    else:
        basis = [monomial_to_dict(m) for m in sol.basis]
    return {
        "weight": element_to_dict(sol.weight),
        "residual": float(sol.residual),
        "feasible": bool(sol.feasible),
        "rank": int(sol.rank),
        "basis": basis,
    }


def construction_to_dict(r: ConstructionResult) -> dict[str, Any]:
    grade_n = None
    if r.solver is not None:
        grade_n = r.solver.weight.ctx.n
    return {
        "id": r.entry_id,
        "params": r.params,
        "match": r.match,
        "flags": list(r.flags),
        "notes": r.notes,
        "norm_ratio": float(r.norm_ratio),
        "grassmann_residual": float(r.grassmann_residual),
        "purity": float(r.report.purity),
        "purity_kind": r.report.purity_kind,
        "max_entangled": bool(r.report.max_entangled),
        "rdm_spectra": [[float(x) for x in spec] for spec in r.report.rdm_spectra],
        "computed": plain_to_dict(r.computed, grade_n),
        "target": plain_to_dict(r.target, grade_n),
        "solver": None if r.solver is None else solution_to_dict(r.solver),
    }
