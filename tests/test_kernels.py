"""The term-table kernels against their earlier forms, bitwise.

_ref_fold, _ref_join, _ref_summed and _ref_spectra (with the helpers they
call) are qstate._fold, entangle._join, qstate._summed and
entangle._spectra as they were before each formed its set-up once per call
instead of once per step: the fold widened every factor and formed its
reordering rows inside the loop and pruned after summing, the join rebuilt
its phase matrices from scratch, the sum always grouped with np.unique, and
the spectra built their side masks and place values with array passes.
The kernels must give the same arrays, bit for bit.  The index join that
_join runs on a solver's grid basis (every exponent row 0..n-1 on exactly
the differentials) is checked against the sort-merge _ref_join as well.
_ref_block_lstsq is entangle._block_lstsq as it was when it always set up
its union-find, and np.unique's inverse is what the solver's one-sort row
numbering (entangle._numbered) must give; the join frame that entangle
caches per structure is checked against _ref_join across phase tables.
solution_to_dict writes a MonomialBasis from its exponent table, which must
give the dicts of its boxed monomials.

A term table holds each ket as its C-order flat index; the earlier kernels
keep their ket digits, unravelled from the tables they read (_digits) and
ravelled where they return a table or a sum (_kets), so the comparisons
stay bitwise.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qgrass import entangle, qstate
from qgrass.algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    MONOMIAL_ONE,
    PhaseTable,
    Variable,
    q_power,
)
from qgrass.catalog import build_recipe
from qgrass.entangle import IntegralSpec, _exponents
from qgrass.qstate import GradedState, LevelSpace, PlainState, _Table, coherent_state
from qgrass.serialize import monomial_to_dict, solution_to_dict
from qgrass.suites import CATALOG_RUNS
from test_entangle import SOLVE_PROBLEMS

LARGE_RUNS = [("ghz_n", {"n": 12}), ("ghz_n", {"n": 10}), ("w_n", {"n": 11}),
              ("qudit_mes_n", {"n": 11})]
RUNS = [(e, p) for e, p, _ in CATALOG_RUNS] + LARGE_RUNS


# -- the earlier kernels ---------------------------------------------------------


def _ref_row_keys(rows, radices):
    place, size = [], 1
    for r in radices:
        place.append(size)
        size *= r
    if size < 1 << 63:
        return rows @ np.array(place, dtype=np.int64)
    return np.unique(rows[:, ::-1], axis=0, return_inverse=True)[1].reshape(-1)


def _ref_sum_by(group, values, size):
    return np.bincount(group, values.real, size) + 1j * np.bincount(group, values.imag, size)


def _digits(kets, dims):
    """The len(kets) x len(dims) ket digits of flat C-order indices."""
    return np.stack(np.unravel_index(kets, dims), axis=1)


def _kets(digits, dims):
    """The flat C-order index of each row of ket digits."""
    return np.ravel_multi_index(digits.T, dims)


def _ref_summed(n, exps, coef, digits, dims):
    keys = _ref_row_keys(np.column_stack([exps[:, ::-1], digits[:, ::-1]]),
                         [n] * exps.shape[1] + list(dims[::-1]))
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    coef = _ref_sum_by(group, coef, len(first))
    nonzero = coef != 0
    rows = first[nonzero]
    return exps[rows], coef[nonzero], digits[rows]


def _ref_summed_kets(n, exps, coef, kets, dims):
    """_ref_summed on flat kets: unravelled on the way in, ravelled on the way out."""
    exps, coef, digits = _ref_summed(n, exps, coef, _digits(kets, dims), dims)
    return exps, coef, _kets(digits, dims)


def _ref_upper_eps(ctx, slots):
    n = ctx.n
    idx = np.arange(len(slots))
    eps = (idx[:, None] < idx).astype(np.int64)
    slot_of = {v: i for i, v in enumerate(slots)}
    for (a, b), e in ctx.phase_table.signed.items():
        y, x = slot_of.get(a), slot_of.get(b)
        if y is not None and x is not None and y < x:
            eps[y, x] = e % n
    return eps


def _ref_roots(n):
    return np.array([q_power(n, k) for k in range(n)])


def _ref_widened(slots, exps, slot_of, width):
    wide = np.zeros((len(exps), width), dtype=np.int64)
    wide[:, [slot_of[v] for v in slots]] = exps
    return wide


def _ref_shares_kets(digits):
    return not (digits[1:] != digits[:-1]).any(axis=1).all()


def _ref_pruning(n, tables, slot_of, differentials, wexps):
    last = {v: i for i, t in enumerate(tables) for v in t.slots}
    held = np.array([d in last for d in differentials], dtype=bool)
    wexps = wexps[(wexps[:, ~held] == n - 1).all(axis=1)][:, held]
    if not len(wexps):
        return {}
    finish = [last[d] for d in differentials if d in last]
    cols = [slot_of[d] for d in differentials if d in last]
    steps, done = {}, 0
    for step in range(1, len(tables) - 1):
        finished = [j for j, s in enumerate(finish) if s <= step]
        if len(finished) > done and n ** len(finished) < 1 << 63:
            keys = _ref_row_keys(wexps[:, finished], [n] * len(finished))
            steps[step] = [cols[j] for j in finished], np.sort(keys)
        done = len(finished)
    return steps


def _ref_fold(states, prune=None):
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
    steps = _ref_pruning(n, tables, slot_of, *prune) if prune is not None and len(tables) > 2 else {}
    eps = _ref_upper_eps(ctx, slots)
    roots = _ref_roots(n)
    sign = np.array([1 if v[1] else -1 for v in slots], dtype=np.int64)
    exps = _ref_widened(tables[0].slots, tables[0].exps, slot_of, len(slots))
    coef, digits = tables[0].coef, _digits(tables[0].kets, states[0].space.dims)
    dims = states[0].space.dims
    shared = _ref_shares_kets(digits)
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (state, t) in enumerate(zip(states[1:], tables[1:]), 1):
            dims += state.space.dims
            tdigits = _digits(t.kets, state.space.dims)
            texps = _ref_widened(t.slots, t.exps, slot_of, len(slots))
            shift = digits.sum(axis=1) - digits.shape[1]
            qexp = -(exps @ (texps @ eps).T) - np.outer(shift, texps @ sign)
            total = exps[:, None] + texps
            ai, bi = np.nonzero((total < n).all(axis=2))
            coef = coef[ai] * t.coef[bi] * roots[qexp[ai, bi] % n]
            exps, joined = total[ai, bi], np.concatenate([digits[ai], tdigits[bi]], axis=1)
            shared = shared or _ref_shares_kets(tdigits)
            if shared:
                exps, coef, digits = _ref_summed(n, exps, coef, joined, dims)
            elif coef.all():
                digits = joined
            else:
                nonzero = coef != 0
                exps, coef, digits = exps[nonzero], coef[nonzero], joined[nonzero]
            if step in steps:
                cols, wkeys = steps[step]
                key = _ref_row_keys(n - 1 - exps[:, cols], [n] * len(cols))
                keep = wkeys[np.minimum(np.searchsorted(wkeys, key), len(wkeys) - 1)] == key
                exps, coef, digits = exps[keep], coef[keep], digits[keep]
    if not np.isfinite(coef).all():
        raise ValueError("the tensor product overflowed (a coefficient is not finite); "
                         "scale the factors down")
    return GradedState._from_table(ctx, LevelSpace(dims),
                                   _Table(slots, exps, coef, _kets(digits, dims)))


def _ref_join(wslots, wexps, wcoef, differentials, state):
    n = state.ctx.n
    table = state._table
    slots = sorted(set(table.slots).union(differentials, wslots))
    slot_of = {v: i for i, v in enumerate(slots)}
    if len(slots) > len(table.slots):
        exps = _ref_widened(table.slots, table.exps, slot_of, len(slots))
    else:
        exps = table.exps
    if len(slots) > len(wslots):
        wexps = _ref_widened(wslots, wexps, slot_of, len(slots))
    diff = [slot_of[d] for d in differentials]

    keys = _ref_row_keys(
        np.concatenate([n - 1 - exps[:, diff], wexps[:, diff]]), [n] * len(diff)
    )
    skey, wkey = keys[: len(exps)], keys[len(exps) :]
    order = np.argsort(wkey, kind="stable")
    lo = np.searchsorted(wkey[order], skey)
    count = np.searchsorted(wkey[order], skey, "right") - lo
    si = np.repeat(np.arange(len(exps)), count)
    wi = order[np.arange(len(si)) + np.repeat(lo + count - np.cumsum(count), count)]
    total = exps[si] + wexps[wi]
    alive = (total < n).all(axis=1)
    si, wi, total = si[alive], wi[alive], total[alive]

    eps = _ref_upper_eps(state.ctx, slots)
    position = [-1] * len(slots)
    for i, d in enumerate(diff):
        position[d] = i
    present = np.less.outer(position, np.arange(len(diff)))
    p = (eps[:, diff] * present).sum(axis=1) % n
    wu = wexps @ eps.T
    qexp = (n - 1) * ((total @ p) % n) - (exps[si] * wu[wi]).sum(axis=1)
    value = wcoef[wi] * table.coef[si] * _ref_roots(n)[qexp % n]

    rest = sorted(set(range(len(slots))).difference(diff))
    return total[:, rest], [slots[i] for i in rest], table.kets[si], wi, value


def _ref_integrate(spec, factors):
    ctx = factors[0].ctx
    n = ctx.n
    terms = spec.weight.terms
    wslots, wexps = _exponents(n, list(terms))
    wcoef = np.fromiter(terms.values(), complex, len(terms))
    diffs = spec.differentials
    union = sorted(set(wslots).union(diffs))
    slot_of = {v: i for i, v in enumerate(union)}
    dexps = _ref_widened(wslots, wexps, slot_of, len(union))[:, [slot_of[d] for d in diffs]]
    with np.errstate(over="ignore", invalid="ignore"):
        state = _ref_fold(factors, (diffs, dexps))
        rest, rest_slots, kets, _, value = _ref_join(wslots, wexps, wcoef, diffs, state)
        table = _ref_summed_kets(n, rest, value, kets, state.space.dims)
    if not np.isfinite(table[1]).all():
        raise ValueError("the weight integral overflowed; scale the weight or the factors down")
    return GradedState._from_table(ctx, state.space, _Table(tuple(rest_slots), *table))


def _ref_column_norms(cols, vals, n):
    mag = np.abs(vals)
    top = np.zeros(n)
    np.fmax.at(top, cols, mag)
    _, e = np.frexp(top)
    return np.ldexp(np.sqrt(np.bincount(cols, np.ldexp(mag, -e[cols]) ** 2, minlength=n)), e)


def _ref_block_lstsq(rows, cols, vals, rhs, shape):
    m, n = shape
    parent = list(range(n))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    first = {}
    shared = np.bincount(rows, minlength=m)[rows] > 1
    for r, j in zip(rows[shared].tolist(), cols[shared].tolist()):
        a, b = find(j), find(first.setdefault(r, j))
        if a != b:
            parent[a] = b
    root = np.arange(n)
    linked = np.flatnonzero(np.bincount(cols[shared], minlength=n))
    root[linked] = [find(j) for j in linked.tolist()]
    single = np.bincount(root, minlength=n)[root] == 1

    norm = _ref_column_norms(cols, vals, n)
    dot = _ref_sum_by(cols, vals.conj() * rhs[rows], n)
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


_REF_STACK_ENTRIES = 1 << 16


def _ref_axis_index(keys, length, nsupp):
    keys = keys.astype(np.int64)
    if np.all(length <= nsupp):
        return keys
    span = int(keys.max()) + 1
    _, inverse = np.unique(keys + span * np.arange(keys.shape[1]), return_inverse=True)
    inverse = inverse.reshape(keys.shape)
    return inverse - inverse.min(axis=0)


def _ref_spectra(unit, cuts):
    nsites = unit.nsites
    psi = unit.amps
    support = np.flatnonzero(psi)
    amps, nsupp = psi[support], len(support)
    digits = np.stack(np.unravel_index(support, unit.dims), axis=1).astype(float)

    dims = np.array(unit.dims, dtype=np.int64)
    sizes = [len(c) for c in cuts]
    on_rows = np.zeros((len(cuts), nsites), dtype=bool)
    on_rows[np.repeat(np.arange(len(cuts)), sizes),
            np.fromiter(itertools.chain.from_iterable(cuts), np.intp, sum(sizes))] = True
    on_rows ^= ~on_rows[:, :1]
    masks = (on_rows @ (1 << np.arange(nsites, dtype=np.int64))).tolist()
    first = {}
    for i, mask in enumerate(masks):
        first.setdefault(mask, i)
    sides = list(first)
    on_rows = on_rows[list(first.values())]
    cut_size = np.prod(np.where(on_rows, dims, 1), axis=1)
    on_rows ^= (cut_size * cut_size < psi.size)[:, None]
    place, size = [], []
    for side in (on_rows, ~on_rows):
        factors = np.where(side, dims, 1)
        tail = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]
        place.append(np.where(side, tail // factors, 0).T.astype(float))
        size.append(tail[:, 0])
    (row_place, col_place), (da, db) = place, size
    nrows, ncols = np.minimum(da, nsupp), np.minimum(db, nsupp)

    groups = {}
    for i, shape in enumerate(zip(nrows.tolist(), ncols.tolist(), db.tolist())):
        groups.setdefault(shape, []).append(i)
    spectra = {}
    for (rows, cols, m), members in groups.items():
        step = max(1, _REF_STACK_ENTRIES // (rows * cols))
        for lo in range(0, len(members), step):
            idx = np.array(members[lo : lo + step])
            rkeys = _ref_axis_index(digits @ row_place[:, idx], da[idx], nsupp)
            ckeys = _ref_axis_index(digits @ col_place[:, idx], db[idx], nsupp)
            stack = np.zeros((len(idx), rows * cols), dtype=complex)
            stack[np.arange(len(idx))[:, None], (rkeys * cols + ckeys).T] = amps
            s = np.linalg.svd(stack.reshape(-1, rows, cols), compute_uv=False)
            s = s / np.linalg.norm(s, axis=1, keepdims=True)
            pad = [0.0] * (m - s.shape[1])
            for i, row in zip(idx.tolist(), s.tolist()):
                spectra[sides[i]] = row + pad
    return [spectra[mask] for mask in masks]


# -- helpers ---------------------------------------------------------------------


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def _assert_same_state(got, want):
    assert got.ctx == want.ctx and got.space == want.space
    assert got._table.slots == want._table.slots
    _assert_same_arrays(got._table[1:], want._table[1:])


def _weight_table(spec):
    n = spec.weight.ctx.n
    terms = spec.weight.terms
    wslots, wexps = _exponents(n, list(terms))
    return wslots, wexps, np.fromiter(terms.values(), complex, len(terms))


def _prune(spec):
    """The prune _integrate hands the fold: each weight term's exponents on
    the differentials."""
    wslots, wexps, _ = _weight_table(spec)
    col = {v: i for i, v in enumerate(wslots)}
    dexps = np.zeros((len(wexps), len(spec.differentials)), dtype=np.int64)
    for j, d in enumerate(spec.differentials):
        if d in col:
            dexps[:, j] = wexps[:, col[d]]
    return spec.differentials, dexps


def _bits(values):
    return np.array(sum(values, [])).tobytes()


# -- catalog and construct_large states ------------------------------------------


@pytest.mark.parametrize("entry_id,params", RUNS, ids=str)
def test_fold_join_and_sum_are_bitwise_the_earlier_kernels_on_the_catalog(entry_id, params):
    recipe = build_recipe(entry_id, **params)
    spec = IntegralSpec(recipe.weight, recipe.differentials)
    product = qstate._fold(recipe.factors)
    _assert_same_state(product, _ref_fold(recipe.factors))
    _assert_same_state(qstate._fold(recipe.factors, _prune(spec)),
                       _ref_fold(recipe.factors, _prune(spec)))
    _assert_same_state(entangle._integrate(spec, recipe.factors),
                       _ref_integrate(spec, recipe.factors))
    joined = entangle._join(*_weight_table(spec), spec.differentials, product)
    _assert_same_arrays(joined, _ref_join(*_weight_table(spec), spec.differentials, product))
    rest, _, kets, _, value = joined
    _assert_same_arrays(qstate._summed(recipe.ctx.n, rest, value, kets, product.space.size),
                        _ref_summed_kets(recipe.ctx.n, rest, value, kets, product.space.dims))


def _grid_join_args(ctx, differentials, state):
    """_join's weight arguments for the grid basis on differentials, the
    table solve_weight hands it, then the differentials and the state."""
    basis = entangle.MonomialBasis(ctx, differentials)
    assert basis.radix == ctx.n and set(basis.slots) == set(differentials)
    return basis.slots, basis.exps, np.ones(len(basis), complex), differentials, state


@pytest.mark.parametrize("entry_id,params", RUNS, ids=str)
def test_index_join_is_bitwise_the_earlier_join_on_the_solver_bases(entry_id, params):
    recipe = build_recipe(entry_id, **params)
    args = _grid_join_args(recipe.ctx, recipe.differentials, recipe.state)
    assert len(recipe.solver_basis) == len(args[1])
    joined = entangle._join(*args, grid=True)
    _assert_same_arrays(joined, _ref_join(*args))
    _assert_same_arrays(joined, entangle._join(*args))  # the sort-merge join, unchanged
    assert len(joined[3]) == len(recipe.state._table.coef)  # one pair per state term


@pytest.mark.parametrize("entry_id,params", RUNS, ids=str)
def test_spectra_are_bitwise_the_earlier_kernel_on_the_catalog(entry_id, params):
    recipe = build_recipe(entry_id, **params)
    computed = entangle._integrate(IntegralSpec(recipe.weight, recipe.differentials),
                                   recipe.factors).plain_projection()
    for state in (recipe.target, computed):
        unit = state.normalized()
        sites = range(unit.nsites)
        cuts = [c for r in range(1, min(unit.nsites, 4)) for c in itertools.combinations(sites, r)]
        for listed in ([(i,) for i in sites], cuts):
            got, want = entangle._spectra(unit, listed), _ref_spectra(unit, listed)
            assert got == want and _bits(got) == _bits(want)


# -- seeded random tables ----------------------------------------------------------

T1, T2, T3 = Variable(1), Variable(2), Variable(3)
TB1, TB2 = Variable(1, barred=True), Variable(2, barred=True)
VARIABLES = [TB1, TB2, T1, T2, T3]  # canonical order
TABLES = {
    "default": PhaseTable(),
    "override": PhaseTable(overrides=((T1, T2, 2), (TB1, T3, -1), (TB2, T1, 3))),
}
COEFFICIENTS = [1, -1, 2, 1j, -1j, complex(-0.0, 1.0), complex(1.0, -0.0), 0.5 - 0.5j]


def _random_factor(ctx, rng, shared):
    """A factor on one or two sites over a few variables.  Small exact
    coefficients (some with a -0.0 part) make sums cancel to exact zeros; with
    shared, kets carry several rows."""
    dims = tuple(int(d) for d in rng.integers(2, 4, size=int(rng.integers(1, 3))))
    held = [v for v in VARIABLES if rng.random() < 0.4] or [VARIABLES[int(rng.integers(5))]]
    terms = {}
    for _ in range(int(rng.integers(1, 6 if shared else 3))):
        exps = rng.integers(0, ctx.n, len(held))
        mono = Monomial(tuple((v, int(e)) for v, e in zip(held, exps) if e))
        ket = tuple(int(rng.integers(d)) for d in dims)
        if not shared and any(k == ket for _, k in terms):
            continue
        terms[(mono, ket)] = COEFFICIENTS[int(rng.integers(len(COEFFICIENTS)))]
    return GradedState(ctx, LevelSpace(dims), terms)


def _random_weight(ctx, rng, factors, diffs):
    """Weight terms that complete random product rows on the differentials,
    and a few random terms (which may leave Grassmann residue)."""
    product = _ref_fold(factors)
    n, table = ctx.n, product._table
    col = {v: i for i, v in enumerate(table.slots)}
    rows = []
    for r in rng.integers(len(table.coef), size=3).tolist() if len(table.coef) else []:
        rows.append({d: n - 1 - (int(table.exps[r, col[d]]) if d in col else 0) for d in diffs})
    for _ in range(3):
        rows.append({v: int(e) for v, e in zip(VARIABLES, rng.integers(0, n, len(VARIABLES)))})
    return AlgebraElement(ctx, {
        Monomial(tuple((v, e) for v, e in sorted(row.items()) if e)):
            COEFFICIENTS[int(rng.integers(len(COEFFICIENTS)))]
        for row in rows
    })


RANDOM_CASES = [(table, shared, seed) for table in sorted(TABLES) for shared in (False, True)
                for seed in range(12)]


def _random_case(table, shared, seed):
    rng = np.random.default_rng(2500 + seed + 100 * shared + 1000 * (table == "override"))
    ctx = AlgebraContext(int(rng.integers(2, 5)), phase_table=TABLES[table])
    factors = [_random_factor(ctx, rng, shared) for _ in range(int(rng.integers(2, 6)))]
    diffs = tuple(v for v in VARIABLES if rng.random() < 0.6) or (T2,)
    return factors, IntegralSpec(_random_weight(ctx, rng, factors, diffs), diffs)


@pytest.mark.parametrize("table,shared,seed", RANDOM_CASES)
def test_random_folds_joins_and_sums_are_bitwise_the_earlier_kernels(table, shared, seed):
    factors, spec = _random_case(table, shared, seed)
    product = qstate._fold(factors)
    _assert_same_state(product, _ref_fold(factors))
    _assert_same_state(qstate._fold(factors, _prune(spec)), _ref_fold(factors, _prune(spec)))
    _assert_same_state(entangle._integrate(spec, factors), _ref_integrate(spec, factors))
    _assert_same_arrays(entangle._join(*_weight_table(spec), spec.differentials, product),
                        _ref_join(*_weight_table(spec), spec.differentials, product))


@pytest.mark.parametrize("table,shared,seed", RANDOM_CASES)
def test_random_index_joins_are_bitwise_the_earlier_join(table, shared, seed):
    # differentials in canonical and reversed order; the states hold
    # variables off the differentials, and some lack a differential; the
    # factors' own tables keep their coefficients' -0.0 parts, which the
    # product's sums write as 0.0
    factors, spec = _random_case(table, shared, seed)
    for state in [qstate._fold(factors)] + factors:
        for diffs in (spec.differentials, spec.differentials[::-1]):
            args = _grid_join_args(state.ctx, diffs, state)
            _assert_same_arrays(entangle._join(*args, grid=True), _ref_join(*args))


def _cancelling_factors():
    """(1 + theta_1)|1> and (theta_1 - 1)|1>: the two pairs that reach
    theta_1|11> carry phase 1 (no ket shift, a scalar to reorder) and cancel
    to an exact zero."""
    ctx = AlgebraContext(2)
    theta = Monomial(((ctx.theta(1), 1),))
    space = LevelSpace((2,))
    return [GradedState(ctx, space, {(MONOMIAL_ONE, (1,)): 1.0, (theta, (1,)): 1.0}),
            GradedState(ctx, space, {(MONOMIAL_ONE, (1,)): -1.0, (theta, (1,)): 1.0})]


def test_cancelling_sums_are_bitwise_the_earlier_kernels():
    factors = _cancelling_factors()
    assert len(_ref_fold(factors)._table.coef) == 1  # theta_1|11> cancelled
    for prune in (None, ((factors[0].ctx.theta(1),), np.array([[0], [1]]))):
        _assert_same_state(qstate._fold(factors + factors[:1], prune),
                           _ref_fold(factors + factors[:1], prune))
    spec = IntegralSpec(factors[0].ctx.gen(factors[0].ctx.theta(1)), (factors[0].ctx.theta(1),))
    _assert_same_state(entangle._integrate(spec, factors), _ref_integrate(spec, factors))


def test_random_cases_reach_every_branch(monkeypatch):
    # some products have kets with several rows, some rows are dropped by the
    # prune, and some integrals leave Grassmann residue; random coefficients
    # rarely cancel exactly, so the exact zeros come from the constructed case
    seen = set()
    for case in RANDOM_CASES:
        factors, spec = _random_case(*case)
        if any(f._table.coef.size > len(set(f._table.kets.tolist())) for f in factors):
            seen.add("shared kets")
        full = qstate._fold(factors)
        if len(qstate._fold(factors, _prune(spec))._table.coef) < len(full._table.coef):
            seen.add("prune")
        if entangle._integrate(spec, factors).grassmann_part_norm() > 0:
            seen.add("residue")
    assert seen == {"shared kets", "prune", "residue"}

    sums, sum_by = [], qstate._sum_by

    def recorded(group, values, size):
        sums.append(sum_by(group, values, size))
        return sums[-1]

    monkeypatch.setattr(qstate, "_sum_by", recorded)
    qstate._fold(_cancelling_factors())
    assert any((s == 0).any() for s in sums)


@pytest.mark.parametrize("seed", range(12))
def test_summed_is_bitwise_the_earlier_sum(seed):
    # ascending keys (no grouping), repeated rows, exact cancellations, -0.0
    # parts, and keys past 2**63 that _row_keys ranks instead of packing
    rng = np.random.default_rng(seed)
    n, width, nsites = int(rng.integers(2, 5)), int(rng.integers(0, 5)), int(rng.integers(1, 4))
    if seed >= 9:
        width = 70  # n**70 >= 2**63
    rows = int(rng.integers(1, 30))
    exps = rng.integers(0, n, (rows, width))
    digits = rng.integers(0, 3, (rows, nsites))
    coef = np.array([COEFFICIENTS[i] for i in rng.integers(len(COEFFICIENTS), size=rows)])
    if seed % 3 == 0:  # one row per (monomial, ket), ascending: nothing to group
        order = np.lexsort(np.concatenate([exps[:, ::-1], digits[:, ::-1]], axis=1).T)
        keep = [order[0]] + [b for a, b in zip(order, order[1:])
                              if (exps[a] != exps[b]).any() or (digits[a] != digits[b]).any()]
        exps, digits, coef = exps[keep], digits[keep], coef[keep]
    elif seed % 3 == 1:  # every row twice, the second cancelling the first
        exps, digits = np.concatenate([exps, exps]), np.concatenate([digits, digits])
        coef = np.concatenate([coef, -coef])
    dims = (3,) * nsites
    want = _ref_summed(n, exps, coef, digits, dims)
    got = qstate._summed(n, exps, coef, _kets(digits, dims), 3**nsites)
    _assert_same_arrays(got, want[:2] + (_kets(want[2], dims),))


# -- every cut, and the rank branch ---------------------------------------------------


def _sparse(dims, seed, nonzero):
    rng = np.random.default_rng(seed)
    amps = np.zeros(math.prod(dims), dtype=complex)
    where = rng.choice(len(amps), size=nonzero, replace=False)
    amps[where] = rng.standard_normal(nonzero) + 1j * rng.standard_normal(nonzero)
    return PlainState(dims, amps)


CUT_STATES = {
    "w_n 6": lambda: build_recipe("w_n", n=6).target,
    "ghz_n 7": lambda: build_recipe("ghz_n", n=7).target,
    "qudit_mes_n 4": lambda: build_recipe("qudit_mes_n", n=4).target,
    "sparse 2x3x4x2": lambda: _sparse((2, 3, 4, 2), 1, 5),
    "sparse 3x3x3x3x2": lambda: _sparse((3, 3, 3, 3, 2), 2, 9),
    "dense 2x3x2": lambda: _sparse((2, 3, 2), 3, 12),
    "one amplitude 3x2x2": lambda: _sparse((3, 2, 2), 4, 1),
}


@pytest.mark.parametrize("name", sorted(CUT_STATES))
def test_cut_spectra_are_bitwise_the_earlier_kernel_on_every_cut(name):
    state = CUT_STATES[name]()
    unit = state.normalized()
    sites = range(unit.nsites)
    cuts = [c for r in range(1, unit.nsites) for c in itertools.combinations(sites, r)]
    got = entangle.cut_spectra(state)
    want = dict(zip(cuts, _ref_spectra(unit, cuts)))
    assert list(got) == list(want) and got == want and _bits(list(got.values())) == _bits(
        list(want.values()))
    # cuts listed in another order and with repeats give the same lists
    listed = cuts[::-1] + cuts[:3]
    assert entangle._spectra(unit, listed) == _ref_spectra(unit, listed)


def test_cut_states_take_the_rank_branch(monkeypatch):
    ranked = []
    index = entangle._axis_index

    def recorded(keys, length, nsupp):
        ranked.append(length > nsupp)
        return index(keys, length, nsupp)

    monkeypatch.setattr(entangle, "_axis_index", recorded)
    for name in sorted(CUT_STATES):
        entangle.cut_spectra(CUT_STATES[name]().normalized())
    assert True in ranked and False in ranked


@pytest.mark.parametrize("seed", range(6))
def test_axis_ranks_are_the_earlier_ranks(seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, [3, 1 << 20][seed % 2], size=(int(rng.integers(1, 20)),
                                                         int(rng.integers(1, 6)))).astype(float)
    length = int(keys.max()) + 2
    got = entangle._axis_index(keys, length, len(keys))
    want = _ref_axis_index(keys, np.full(keys.shape[1], length), len(keys))
    _assert_same_arrays([got], [want])


# -- the solver's set-up: block least squares, row numbering, cached frame ----------


def _recorded_lstsq(monkeypatch, problems):
    """The _block_lstsq arguments of each solve_weight on the problems."""
    calls, real = [], entangle._block_lstsq
    monkeypatch.setattr(entangle, "_block_lstsq", lambda *a: calls.append(a) or real(*a))
    for _, recipe, target in problems:
        entangle.solve_weight(recipe.state, recipe.differentials, target, recipe.solver_basis)
    monkeypatch.undo()
    assert len(calls) == len(problems)
    return calls


def _assert_same_lstsq(args):
    (x, rank, sv), (rx, rrank, rsv) = entangle._block_lstsq(*args), _ref_block_lstsq(*args)
    _assert_same_arrays([x, sv], [rx, rsv])
    assert rank == rrank


def test_block_lstsq_is_bitwise_the_earlier_one_on_the_solve_problems(monkeypatch):
    # the 38 catalog solver checks and the solve benchmark's six problems
    for args in _recorded_lstsq(monkeypatch, SOLVE_PROBLEMS):
        _assert_same_lstsq(args)


def _sparse_lstsq(seed, shared):
    """A random A[rows, cols] = vals: some columns empty, some all zero, rows
    that only the target reaches; with shared, a few rows meet several
    columns, else each row meets one at most."""
    rng = np.random.default_rng(700 + seed + 100 * shared)
    m, n = int(rng.integers(4, 40)), int(rng.integers(1, 25))
    rows, cols = [], []
    free = list(rng.permutation(m))
    for j in range(n):
        size = int(rng.integers(0, 4))
        taken = rng.choice(m, size=min(size, m), replace=False).tolist() if shared else [
            free.pop() for _ in range(min(size, len(free)))]
        rows += taken
        cols += [j] * len(taken)
    values = [COEFFICIENTS[int(i)] * 10.0 ** int(rng.integers(-150, 150))
              for i in rng.integers(len(COEFFICIENTS), size=len(rows))]
    vals = np.array(values, dtype=complex) * (rng.random(len(rows)) > 0.1)
    rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), vals, rhs, (m, n))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_block_lstsq_is_bitwise_the_earlier_one_on_sparse_problems(seed, shared):
    args = _sparse_lstsq(seed, shared)
    if not shared:  # no row is shared: the union-find is skipped
        assert np.bincount(args[0], minlength=args[4][0]).max(initial=0) <= 1
    _assert_same_lstsq(args)


def test_sparse_problems_reach_every_case():
    seen = set()
    for seed, shared in itertools.product(range(12), (False, True)):
        rows, cols, vals, _, (m, n) = _sparse_lstsq(seed, shared)
        counts = np.bincount(rows, minlength=m)
        seen.add("shared" if counts.max(initial=0) > 1 else "not shared")
        if (np.bincount(cols, minlength=n) == 0).any():
            seen.add("empty column")
        if (counts == 0).any():
            seen.add("target-only row")
        if len(vals) and not vals.all():
            seen.add("zero entry")
    assert seen == {"shared", "not shared", "empty column", "target-only row", "zero entry"}


@pytest.mark.parametrize("seed", range(8))
def test_row_numbering_is_the_inverse_of_unique(seed):
    # duplicates, a single key, no key, and keys past 2**63 that _row_keys ranks
    rng = np.random.default_rng(900 + seed)
    size = [0, 1][seed] if seed < 2 else int(rng.integers(2, 60))
    if seed >= 6:
        rows = rng.integers(0, 3, (size, 70))
        keys = qstate._row_keys(rows, [3] * 70)  # 3**70 >= 2**63: ranks
    else:
        keys = rng.integers(0, [5, 1 << 62][seed % 2], size).astype(np.int64)
    row, count = entangle._numbered(keys)
    uniq, inverse = np.unique(keys, return_inverse=True)
    _assert_same_arrays([row], [inverse])
    assert count == len(uniq)


def test_join_frames_follow_the_phase_table():
    # one grade, one set of slots, two phase tables: each context gets its own
    # U and frame, and every join is bitwise the earlier join
    slots = tuple(VARIABLES)
    contexts = [AlgebraContext(4, phase_table=TABLES[name]) for name in sorted(TABLES)]
    assert contexts[0] != contexts[1]
    eps = [qstate._upper_eps(ctx, slots) for ctx in contexts]
    assert (eps[0] != eps[1]).any()
    for ctx, u in zip(contexts * 2, eps * 2):  # twice, so the second pass reads the cache
        assert (qstate._upper_eps(ctx, slots) == u).all()
        state = qstate.tensor([coherent_state(ctx, v, 3) for v in slots])
        for diffs in ((T2, TB1, T1), (T1, T2), (T3, TB2, T1, T2, TB1)):
            args = _grid_join_args(ctx, diffs, state)
            _assert_same_arrays(entangle._join(*args, grid=True), _ref_join(*args))
            _assert_same_arrays(entangle._join(*args), _ref_join(*args))
            weight = _random_weight(ctx, np.random.default_rng(len(diffs)), [state], diffs)
            spec = IntegralSpec(weight, diffs)
            _assert_same_arrays(entangle._join(*_weight_table(spec), diffs, state),
                                _ref_join(*_weight_table(spec), diffs, state))


def test_a_phase_table_given_lists_keys_the_caches_as_its_tuples():
    # the caches hash the context, so a table built from lists holds tuples
    table = TABLES["override"]
    listed = PhaseTable(overrides=[list(o) for o in table.overrides])
    assert listed == table and hash(listed) == hash(table)
    ctx = AlgebraContext(3, phase_table=listed)
    state = qstate.tensor([coherent_state(ctx, v, 3) for v in (T1, T2)])
    args = _grid_join_args(ctx, (T2, T1), state)
    _assert_same_arrays(entangle._join(*args, grid=True), _ref_join(*args))


def test_cached_frames_refuse_writes_and_repeat_bitwise():
    recipe = build_recipe("ghz_n", n=4)
    args = _grid_join_args(recipe.ctx, recipe.differentials, recipe.state)
    first = entangle._join(*args, grid=True)
    key = (recipe.ctx, recipe.state._table.slots, args[0], tuple(recipe.differentials))
    frame = entangle._frame(*key)
    assert entangle._frame(*key) is frame
    arrays = [part for part in frame if isinstance(part, np.ndarray)]
    assert len(arrays) == 6  # diff, U, (n-1)*p, rest, the grid matrix, roots
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
    with pytest.raises(TypeError):
        frame[1][recipe.differentials[0]] = 0  # the slot map
    _assert_same_arrays(entangle._join(*args, grid=True), first)
    _assert_same_arrays(first, _ref_join(*args))


def test_boxed_rows_equal_the_earlier_boxing():
    # the 44 solve bases, a width-0 basis and negative max_exponents; each row
    # read alone, then all rows at once from a fresh basis
    bases = [recipe.solver_basis for _, recipe, _ in SOLVE_PROBLEMS]
    ctx = AlgebraContext(3)
    bases += [entangle.MonomialBasis(ctx, []), entangle.MonomialBasis(ctx, [], -1),
              entangle.MonomialBasis(ctx, [T1, T2], -1), entangle.MonomialBasis(ctx, [T1, T2], 0)]
    for basis in bases:
        want = [Monomial(itertools.compress(zip(basis.slots, row), row))
                for row in basis.exps.tolist()]
        fresh = entangle.MonomialBasis(ctx, basis.slots, basis.radix - 1)
        alone = [fresh[i] for i in range(len(fresh))[::-1]][::-1]
        for got in (alone, list(entangle.MonomialBasis(ctx, basis.slots, basis.radix - 1))):
            assert got == want
            assert [hash(m) for m in got] == [hash(m) for m in want]
            assert all(type(m) is Monomial for m in got)


def test_table_basis_serializes_as_its_monomials():
    # the 44 solve bases, a width-0 basis and max_exponent -1 and 0, each
    # fresh: solution_to_dict writes the table's rows as the per-monomial
    # dicts, key order and int exponents included, and boxes no row
    ctx = AlgebraContext(3)
    tables = [(b.slots, b.radix - 1) for b in (r.solver_basis for _, r, _ in SOLVE_PROBLEMS)]
    tables += [((), 2), ((), -1), ((T1, T2), -1), ((T1, T2), 0)]
    for slots, top in tables:
        basis = entangle.MonomialBasis(ctx, slots, top)
        got = solution_to_dict(entangle.WeightSolution(ctx.zero(), 0.0, True, basis, 0))
        assert len(basis._boxed) == 0
        listed = entangle.WeightSolution(ctx.zero(), 0.0, True, tuple(basis), 0)
        want = [monomial_to_dict(m) for m in basis]
        assert solution_to_dict(listed)["basis"] == want
        assert json.dumps(got["basis"]) == json.dumps(want)


# -- overflow -------------------------------------------------------------------------


def test_overflow_raises_one_value_error_as_before():
    # 1e200**2 is past the float range on the all-one row, which the scalar
    # weight term completes: one ValueError with the earlier text, and numpy
    # prints nothing
    ctx = AlgebraContext(2)
    vs = [ctx.theta(k) for k in (1, 2, 3)]
    factors = [coherent_state(ctx, v, 2, 1e200) for v in vs]
    spec = IntegralSpec(ctx.one() + ctx.word(vs), tuple(vs))
    for new, old in ((lambda: qstate._fold(factors), lambda: _ref_fold(factors)),
                     (lambda: entangle._integrate(spec, factors),
                      lambda: _ref_integrate(spec, factors))):
        messages = []
        with np.errstate(all="raise"):
            for run in (new, old):
                with pytest.raises(ValueError, match="overflowed") as raised:
                    run()
                messages.append(str(raised.value))
        assert messages[0] == messages[1]
