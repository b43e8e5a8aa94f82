"""The qgrass benchmark workloads.

A workload is a fixed list of operations ("ops"); one pass runs the list
once, each op starting when the previous one returns (a closed loop with
one client).  The seed chooses inputs only: sizes are fixed, so a pass
costs the same on every seed.  Ops call qgrass through module attributes
at call time (``cli.main``, ``entangle.solve_weight``, ...), so a traced
run that rebinds those attributes sees every call.

Each workload loads a different layer:

* ``verify_all`` -- the command users run: many small inputs, where fixed
  cost per call dominates.
* ``solve`` -- the weight solver: one ``integrate_graded`` per basis
  column, then a re-verification whose cost grows with the weight terms
  (dense versus sparse targets on the same state separate the two).
* ``construct_large`` -- construction without the solver: ``tensor`` and
  ``left_multiply`` on states of up to 4096 terms, then entanglement
  reports and state comparison.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qgrass import catalog, cli, entangle, suites
from qgrass.qstate import PlainState

TOL = 1e-9
VERIFY_ITEMS = 52


@dataclass
class Op:
    """One benchmark operation.

    ``run`` is the timed call; ``check`` returns None when its output is
    correct and a one-line reason otherwise; ``info`` gives the op's term
    counts for the run metadata, from a correct output.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    info: Callable[[object], dict]


# -- verify_all ---------------------------------------------------------------


def verify_all(seed: int, out_dir: Path, size: str = "full") -> list[Op]:
    """One op: ``qgrass verify all`` in process.  It is fast at full size,
    so the tiny size is the same op."""
    out = out_dir / f"verify-seed{seed}.json"
    argv = ["verify", "all", "--seed", str(seed), "--format", "json", "--out", str(out)]

    def check(code) -> str | None:
        items = json.loads(out.read_text())["items"]
        out.unlink()  # the next pass must write its own report
        if code != 0:
            return f"exit code {code}"
        if len(items) != VERIFY_ITEMS:
            return f"{len(items)} items, expected {VERIFY_ITEMS}"
        failed = [it["id"] for it in items if it["status"] == "fail"]
        return f"items failed: {failed}" if failed else None

    return [Op("verify_all", lambda: cli.main(argv), check,
               lambda code: {"argv": argv, "items": VERIFY_ITEMS})]


# -- solve ----------------------------------------------------------------------

SOLVE_SIZES = {
    "full": {"qubits": 8, "grades": (9, 10, 11)},
    "tiny": {"qubits": 3, "grades": (3, 4)},
}


def _random_target(rng: np.random.Generator, dims: tuple[int, ...]) -> PlainState:
    size = int(np.prod(dims))
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PlainState(dims, amps / np.linalg.norm(amps))


def _check_solution(solution, feasible: bool) -> str | None:
    if not feasible:
        # the designed-red mixed recipe: no weight on its basis reaches the target
        if solution.feasible or solution.residual < 0.5:
            return f"mixed recipe solved: feasible={solution.feasible} residual={solution.residual:.3g}"
        return None
    # weights map to amplitudes by a permuted diagonal: every target is reachable
    if not solution.feasible or solution.residual >= TOL:
        return f"infeasible: residual {solution.residual:.3g}"
    if solution.rank != len(solution.basis):
        return f"rank {solution.rank} < {len(solution.basis)} columns"
    return None


def _solve_info(recipe, solution) -> dict:
    return {
        "state_terms": len(recipe.state.terms),
        "weight_terms": len(solution.weight.terms),
        "basis": len(recipe.solver_basis),
        "sites": recipe.state.space.nsites,
    }


def solve(seed: int, out_dir: Path, size: str = "full") -> list[Op]:
    """solve_weight on a qubit coherent product (dense random and sparse GHZ
    targets), coherent qudit pairs with random targets, and the mixed recipe."""
    rng = np.random.default_rng(seed)
    sizes = SOLVE_SIZES[size]
    qubits = catalog.build_recipe("ghz_n", n=sizes["qubits"])
    problems = [
        (f"dense{sizes['qubits']}", qubits, _random_target(rng, qubits.target.dims), True),
        (f"ghz{sizes['qubits']}", qubits, qubits.target.normalized(), True),
    ]
    for n in sizes["grades"]:
        recipe = catalog.build_recipe("qudit_mes_n", n=n)
        problems.append((f"qudit{n}", recipe, _random_target(rng, recipe.target.dims), True))
    mixed = catalog.build_recipe("qutrit_mixed_02_20")
    problems.append(("mixed", mixed, mixed.target.normalized(), False))

    def run(recipe, target):
        return entangle.solve_weight(
            recipe.state, recipe.differentials, target, recipe.solver_basis, tol=TOL
        )

    return [
        Op(f"solve.{label}", functools.partial(run, recipe, target),
           functools.partial(_check_solution, feasible=feasible),
           functools.partial(_solve_info, recipe))
        for label, recipe, target, feasible in problems
    ]


# -- construct_large ------------------------------------------------------------

CONSTRUCT_SIZES = {
    "full": [("ghz_n", {"n": 12}), ("ghz_n", {"n": 10}), ("w_n", {"n": 11}),
             ("qudit_mes_n", {"n": 11})],
    "tiny": [("ghz_n", {"n": 4}), ("ghz_n", {"n": 5}), ("w_n", {"n": 4}),
             ("qudit_mes_n", {"n": 3})],
}
SIGNED = ["cluster4_pm", "qutrit_biseparable"]

# Match classes at the commit that defined this benchmark.  A change is
# printed (it is a finding), and fails only below the catalog floor.
EXPECTED_MATCH = {
    "ghz_n": lambda n: "exact" if n % 4 in (0, 3) else "signature",
    "w_n": lambda n: "signature",
    "qudit_mes_n": lambda n: "exact",
    "cluster4_pm": lambda sign: "signature",
    "qutrit_biseparable": lambda sign: "signature",
}


def _family_floor(entry_id: str) -> str:
    floors = [floor for eid, _params, floor in suites.CATALOG_RUNS if eid == entry_id]
    return min(floors, key=catalog.MATCH_RANK.__getitem__)


def _op_name(entry_id: str, params: dict) -> str:
    return f"construct.{entry_id}[{','.join(f'{k}={v}' for k, v in params.items())}]"


def _check_construct(entry_id: str, params: dict, reported: set, result) -> str | None:
    (param,) = params.values()
    expected = EXPECTED_MATCH[entry_id](param)
    if result.match != expected and result.match not in reported:
        reported.add(result.match)
        print(f"note: {_op_name(entry_id, params)} match class changed: "
              f"{expected} -> {result.match}")
    floor = _family_floor(entry_id)
    if not catalog.match_at_least(result.match, floor):
        return f"match {result.match} below floor {floor}"
    purity = result.report.purity
    if entry_id == "ghz_n" and abs(purity) > TOL:
        return f"GHZ purity {purity:.3g}, expected 0"
    if entry_id == "w_n":
        n = params["n"]
        if abs(purity - ((n - 2) / n) ** 2) > TOL:
            return f"W purity {purity:.6g}, expected {((n - 2) / n) ** 2:.6g}"
    return None


def _construct(entry_id: str, params: dict):
    return catalog.catalog_construct(entry_id, tol=TOL, solver_check=False, **params)


def _construct_info(entry_id: str, params: dict, result) -> dict:
    recipe = catalog.build_recipe(entry_id, **params)
    return {
        "state_terms": len(recipe.state.terms),
        "weight_terms": len(recipe.weight.terms),
        "basis": len(recipe.solver_basis),
        "sites": recipe.state.space.nsites,
        "match": result.match,
    }


def construct_large(seed: int, out_dir: Path, size: str = "full") -> list[Op]:
    """catalog_construct without the solver check; the seed draws the signs
    of the small entries and the op order."""
    rng = np.random.default_rng(seed)
    entries = list(CONSTRUCT_SIZES[size])
    entries += [(entry_id, {"sign": int(rng.choice([1, -1]))}) for entry_id in SIGNED]
    entries = [entries[i] for i in rng.permutation(len(entries))]
    return [
        Op(_op_name(entry_id, params), functools.partial(_construct, entry_id, params),
           functools.partial(_check_construct, entry_id, params, set()),
           functools.partial(_construct_info, entry_id, params))
        for entry_id, params in entries
    ]


WORKLOADS = {"verify_all": verify_all, "solve": solve, "construct_large": construct_large}
