"""Command-line front end.

    qgrass construct <id> [--n N] [--sign +|-] [--omega-power K] ...
    qgrass verify {algebra,catalog,closure,boson,all} [--seed S] ...
    qgrass verify algebra --n N ...
    qgrass solve-weight --spec FILE ...

Common flags: --tol, --seed, --format {text,json}, --out PATH.
Exit codes: 0 = all pass (flagged items allowed), 1 = failure, 2 = usage
error.  JSON reports are schema-stable and list items sorted by id; the
discrepancy ledger section explains every flag that appears.  Every payload
is built of JSON values where it is made (complex numbers as [re, im] lists,
string keys), so a report is written as it stands; text mode prints each
item's scalar fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any

from . import issues
from .algebra import AlgebraContext, parse_variable
from .catalog import MATCH_EXACT, catalog_construct, match_at_least, MATCH_SIGNATURE
from .entangle import MonomialBasis, solve_weight
from .qstate import coherent_state, squeezed_state_exp, squeezed_state_symmetric, tensor
from .serialize import (
    _integer,
    _objects,
    _pair2c,
    construction_to_dict,
    monomial_from_dict,
    plain_from_dict,
    solution_to_dict,
)
from .suites import SUITES, run_suites


@dataclass
class RunConfig:
    tolerance: float = 1e-9
    seed: int = 0
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:  # also rejects nan
            raise ValueError("tolerance must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Report:
    command: str
    config: dict
    items: list[dict] = field(default_factory=list)
    ledger: dict[str, str] = field(default_factory=dict)

    def add(self, item_id: str, status: str, payload: dict, flags: list[str]):
        self.items.append(
            {"id": item_id, "status": status, "flags": list(flags), **payload}
        )
        for f in flags:
            self.ledger[f] = issues.describe(f)

    def finalize(self) -> None:
        self.items.sort(key=lambda it: it["id"])
        self.ledger = dict(sorted(self.ledger.items()))

    @property
    def failed(self) -> bool:
        return any(it["status"] == "fail" for it in self.items)

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "config": self.config,
            "items": self.items,
            "ledger": self.ledger,
        }

    def to_text(self) -> str:
        lines = [f"# qgrass {self.command}"]
        width = max((len(it["id"]) for it in self.items), default=10)
        for it in self.items:
            status = it["status"].upper()
            detail = " ".join(
                f"{k}={_fmt_value(v)}"
                for k, v in it.items()
                if k not in ("id", "status", "flags")
                and not isinstance(v, (dict, list))
                and v != ""
            )
            flagtxt = f" [{','.join(it['flags'])}]" if it["flags"] else ""
            lines.append(f"{status:7s} {it['id']:{width}s} {detail}{flagtxt}")
        npass = sum(it["status"] == "pass" for it in self.items)
        nflag = sum(it["status"] == "flagged" for it in self.items)
        nfail = sum(it["status"] == "fail" for it in self.items)
        lines.append(f"summary: {npass} pass, {nflag} flagged, {nfail} fail")
        if self.ledger:
            lines.append("ledger:")
            for fid, text in self.ledger.items():
                lines.append(f"  {fid}: {text}")
        return "\n".join(lines) + "\n"


def _fmt_value(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _emit(report: Report, config: RunConfig) -> None:
    report.finalize()
    if config.fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = report.to_text()
    _write(text, config)


def _write(text: str, config: RunConfig) -> None:
    """Write to --out when given, else to standard output."""
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- construct ------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace, config: RunConfig) -> int:
    params: dict[str, Any] = {}
    if args.n is not None:
        params["n"] = args.n
    if args.sign is not None:
        params["sign"] = 1 if args.sign == "+" else -1
    if args.omega_power is not None:
        params["omega_power"] = args.omega_power
    try:
        result = catalog_construct(args.id, tol=config.tolerance, **params)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:  # overflow, or no memory
        sys.stderr.write(f"error: bad parameters for {args.id!r}: {exc}\n")
        return 2

    ok = match_at_least(result.match, MATCH_SIGNATURE)
    if result.match == MATCH_EXACT and not result.flags:
        status = "pass"
    elif ok:
        status = "flagged"
    else:
        status = "fail"

    report = Report("construct", _config_dict(config))
    payload = construction_to_dict(result)
    report.add(payload.pop("id"), status, payload, result.flags)
    _emit(report, config)
    return 0 if ok else 1


# -- verify ----------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.n is not None and args.suite != "algebra":
        sys.stderr.write("error: --n applies to the algebra suite only\n")
        return 2
    if args.n is not None:
        from .suites import suite_algebra

        try:
            AlgebraContext(args.n)
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        items = suite_algebra(seed=config.seed, tol=config.tolerance, grades=(args.n,))
    else:
        items = run_suites(names, seed=config.seed, tol=config.tolerance)
    report = Report("verify", {**_config_dict(config), "suite": args.suite})
    for it in items:
        report.add(it.item_id, it.status, it.payload, it.flags)
    _emit(report, config)
    return 1 if report.failed else 0


# -- solve-weight -----------------------------------------------------------------


def _build_factor(ctx: AlgebraContext, spec: dict):
    kind = spec["kind"]
    v = parse_variable(spec["variable"])
    if kind == "coherent":
        scale = _pair2c(spec["scale"], "scale") if "scale" in spec else 1.0
        return coherent_state(ctx, v, _integer(spec.get("d", ctx.n), "d"), scale)
    if kind == "squeezed_symmetric":
        return squeezed_state_symmetric(ctx, v)
    if kind == "squeezed_exp":
        return squeezed_state_exp(ctx, v, _integer(spec.get("d", ctx.n), "d"))
    raise ValueError(f"unknown factor kind {kind!r}")


def _build_product(ctx: AlgebraContext, factors: Any):
    return tensor([_build_factor(ctx, f) for f in _objects(factors, "factors")])


def _build_state(ctx: AlgebraContext, spec: dict):
    if "combination" in spec:
        parts = _objects(spec["combination"], "combination")
        if not parts:
            raise ValueError("combination names no product")
        state = None
        for part in parts:
            coeff = _pair2c(part.get("coeff", [1.0, 0.0]))
            product = coeff * _build_product(ctx, part["factors"])
            state = product if state is None else state + product
        return state
    return _build_product(ctx, spec["factors"])


def _variables(names: Any, what: str) -> list:
    """The variables a list of names gives; anything but a list is a ValueError naming what."""
    if not isinstance(names, list):
        raise ValueError(f"{what} must be a list of variable names, got {names!r}")
    return [parse_variable(s) for s in names]


def cmd_solve_weight(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        if args.spec == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.spec) as fh:
                spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"the spec must be an object, got {type(spec).__name__}")
        ctx = AlgebraContext(_integer(spec["grade_n"], "grade_n"))
        state = _build_state(ctx, spec)
        target = plain_from_dict(spec["target"], "target")
        differentials = tuple(_variables(spec["differentials"], "differentials"))
        basis_spec = spec["basis"]
        if isinstance(basis_spec, dict):
            variables = _variables(basis_spec["variables"], "basis variables")
            top = basis_spec.get("max_exponent")
            top = None if top is None else _integer(top, "max_exponent")
            basis = MonomialBasis(ctx, variables, top)
        elif isinstance(basis_spec, list):
            basis = [monomial_from_dict(d) for d in basis_spec]
        else:
            raise ValueError(f"basis must be a list of monomials or an object, got {basis_spec!r}")
        solution = solve_weight(state, differentials, target, basis, tol=config.tolerance)
    except KeyError as exc:
        sys.stderr.write(f"error: malformed solve spec: missing field {exc}\n")
        return 2
    except (ValueError, TypeError, OverflowError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: malformed solve spec: {exc}\n")
        return 2

    report = Report("solve-weight", _config_dict(config))
    payload = solution_to_dict(solution)
    status = "pass" if solution.feasible else "flagged"
    report.add("solve_weight", status, payload, [])
    _emit(report, config)
    return 0


def _config_dict(config: RunConfig) -> dict:
    return {
        "tolerance": config.tolerance,
        "seed": config.seed,
        "format": config.fmt,
    }


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Graded Grassmann algebra engine: construct cataloged "
        "entangled states, verify invariant suites, solve for weight functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    pc = sub.add_parser("construct", help="run a cataloged construction")
    pc.add_argument("id", help="catalog entry id (see qgrass list)")
    pc.add_argument("--n", type=int, default=None, help="size parameter for *_n entries")
    pc.add_argument("--sign", choices=("+", "-"), default=None)
    pc.add_argument("--omega-power", type=int, default=None)
    common(pc)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", choices=("algebra", "catalog", "closure", "boson", "all"))
    pv.add_argument("--n", type=int, default=None, help="restrict algebra suite to one grade")
    common(pv)

    ps = sub.add_parser("solve-weight", help="solve for a weight function")
    ps.add_argument("--spec", required=True, help="JSON problem spec file, or - for stdin")
    common(ps)

    pl = sub.add_parser("list", help="list catalog entry ids")
    common(pl)
    return parser


def cmd_list(args: argparse.Namespace, config: RunConfig) -> int:
    from .catalog import catalog_ids

    ids = catalog_ids()
    if config.fmt == "json":
        payload = {"command": "list", "config": _config_dict(config), "ids": ids}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(entry_id + "\n" for entry_id in ids)
    _write(text, config)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            tolerance=args.tol, seed=args.seed, fmt=args.format, out=args.out
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    handlers = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "solve-weight": cmd_solve_weight,
        "list": cmd_list,
    }
    try:
        return handlers[args.command](args, config)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
