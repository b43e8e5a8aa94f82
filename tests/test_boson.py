"""Bosonic Fock layer and hybrid super coherent states."""

import math

import numpy as np
import pytest

from qgrass.boson import (
    HybridState,
    coherent_fock,
    hybrid_purity,
    inner,
    naive_super_matrix,
    orthonormal_pair,
    overlap_exact,
    schmidt_coefficients,
    super_state,
)
from qgrass.entangle import schmidt_rank


def test_vacuum_coherent_vector():
    vec = coherent_fock(0.0, 10)
    assert abs(vec.amps[0] - 1.0) < 1e-15
    assert np.allclose(vec.amps[1:], 0.0)


def test_unit_amplitude_norm_at_cutoff_40():
    assert abs(coherent_fock(1.0, 40).norm() - 1.0) < 1e-12


def test_small_cutoff_shows_truncation():
    assert coherent_fock(2.0, 3).norm() < 1.0 - 1e-3


def test_overlap_formula_values():
    assert abs(overlap_exact(1.0, 1.0) - 1.0) < 1e-12
    assert abs(overlap_exact(0.0, 1.0) - math.exp(-0.5)) < 1e-12
    # alpha = 1, beta = -1: exponent -(1 + 1 + 2)/2 = -2
    assert abs(overlap_exact(1.0, -1.0) - math.exp(-2.0)) < 1e-12


def test_truncated_overlap_matches_formula_on_grid():
    worst = 0.0
    grid = [complex(re, im) for re in (-1.4, 0.0, 1.4) for im in (-1.4, 0.0, 1.4)]
    for a in grid:
        for b in grid:
            got = inner(coherent_fock(a, 40), coherent_fock(b, 40))
            worst = max(worst, abs(got - overlap_exact(a, b)))
    assert worst < 1e-9


def test_orthonormal_pair_properties():
    b0, b1, n1 = orthonormal_pair(1.0, -0.5, 40)
    assert abs(inner(b0, b1)) < 1e-9
    assert abs(b1.norm() - 1.0) < 1e-9
    # unit norm forces the squared form of the constant
    expected = math.sqrt(1.0 - abs(overlap_exact(1.0, -0.5)) ** 2)
    assert abs(n1 - expected) < 1e-9


def test_orthonormal_pair_widely_separated_limit():
    _, _, n1 = orthonormal_pair(4.0, -4.0, 60)
    assert abs(n1 - 1.0) < 1e-9


def test_orthonormal_pair_rejects_degenerate_input():
    with pytest.raises(ValueError):
        orthonormal_pair(0.7, 0.7)


def test_super_states_are_maximally_entangled():
    for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        state = super_state(kind, 1.0, -0.5)
        assert abs(hybrid_purity(state)) < 1e-9


def test_phi_minus_amplitudes():
    state = super_state("phi_minus", 1.3, 0.1)
    amp = 1.0 / math.sqrt(2.0)
    flat = state.amps.reshape(-1)
    assert np.allclose(flat, [amp, 0.0, 0.0, -amp], atol=1e-12)


def test_psi_plus_amplitudes():
    state = super_state("psi_plus", 1.3, 0.1)
    amp = 1.0 / math.sqrt(2.0)
    assert abs(state.amps[0, 1] - amp) < 1e-12
    assert abs(state.amps[1, 0] - amp) < 1e-12


def test_super_state_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        super_state("psi_plus", 0.2, 0.2)


def test_hybrid_purity_product_state():
    b0, b1, _ = orthonormal_pair(1.0, -1.0)
    product = HybridState((b0, b1), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert abs(hybrid_purity(product) - 1.0) < 1e-12


def test_equal_amplitude_naive_recipe_is_separable():
    mat = naive_super_matrix("psi_plus", 0.9, 0.9, 40)
    assert schmidt_rank(schmidt_coefficients(mat), tol=1e-6) == 1


def test_naive_purity_converges_to_zero_as_overlap_vanishes():
    purities = []
    for a in (0.5, 1.0, 2.0, 4.0):
        mat = naive_super_matrix("psi_plus", a, 0.0, 40)
        probs = schmidt_coefficients(mat) ** 2
        purities.append(2.0 * float(np.sum(probs**2)) - 1.0)
    assert all(x > y for x, y in zip(purities, purities[1:]))
    assert purities[-1] < 1e-5


def test_entanglement_independent_of_pair_parameters():
    values = [
        hybrid_purity(super_state("psi_plus", a, b))
        for a, b in ((1.0, 0.0), (2.0, -1.0), (0.3 + 0.4j, -0.2))
    ]
    assert max(abs(v) for v in values) < 1e-9


def test_overlap_grid_matches_a_per_pair_reference_loop():
    from qgrass.suites import suite_boson

    # the grid as first written: both vectors built inside the loop, for every pair
    cutoff = 40
    grid = [complex(re, im) for re in (-1.4, -0.7, 0.0, 0.7, 1.4)
            for im in (-1.4, -0.7, 0.0, 0.7, 1.4)]
    worst = 0.0
    for a in grid:
        fa = coherent_fock(a, cutoff)
        for b in grid:
            fb = coherent_fock(b, cutoff)
            worst = max(worst, abs(inner(fa, fb) - overlap_exact(a, b)))
    item = next(it for it in suite_boson(cutoff=cutoff) if it.item_id == "boson.overlap_grid")
    # max_error is a finite float >= 0, so == compares it bit for bit
    assert item.payload == {"pairs": 625, "max_error": worst, "cutoff": cutoff}


def test_fermion_halves_are_integrated_once_per_sign(monkeypatch):
    from qgrass import boson

    calls, real = [], boson.apply_weight_and_integrate

    def counting(spec, state):
        calls.append(spec)
        return real(spec, state)

    want = {kind: super_state(kind, 1.2, -0.3).amps.copy()
            for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus")}
    naive = naive_super_matrix("psi_minus", 0.8, 0.3)
    boson._fermion_pair.cache_clear()
    monkeypatch.setattr(boson, "apply_weight_and_integrate", counting)
    for _ in range(3):
        for kind, amps in want.items():
            got = super_state(kind, 1.2, -0.3).amps
            assert got.tobytes() == amps.tobytes()
        assert naive_super_matrix("psi_minus", 0.8, 0.3).tobytes() == naive.tobytes()
    # two integrals (the |0> and the |1> half) for each of the two signs
    assert len(calls) == 4
