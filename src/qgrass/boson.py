"""Truncated bosonic Fock space and hybrid fermion-boson entangled states.

Coherent vectors are Poissonian amplitude profiles truncated at a cutoff
D; the closed-form overlap

    <a|b> = exp(-(|a|^2 + |b|^2 - 2*conj(a)*b)/2)

is reproduced by the truncated inner product to high accuracy for
moderate amplitudes (the default D = 40 keeps the tail below 1e-12 for
|a| <= 2).  Two non-orthogonal coherent vectors are turned into an
orthonormal basis by Gram-Schmidt; the normalization constant is fixed by
construction, N1 = sqrt(1 - |<a|b>|^2), rather than by a closed formula
(see the N1_NORMALIZATION note).

The hybrid states pair a qubit-like fermionic factor, produced by the
two-level Grassmann integral recipes, with the orthonormal bosonic pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraContext
from .entangle import IntegralSpec, apply_weight_and_integrate
from .qstate import PlainState, coherent_state

DEFAULT_CUTOFF = 40


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over number states |0> .. |D-1>."""

    cutoff: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex).reshape(self.cutoff)
        object.__setattr__(self, "amps", a)
        if np.linalg.norm(a) > 1.0 + 1e-9:
            raise ValueError("Fock vector norm exceeds 1 beyond tolerance")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def coherent_fock(alpha: complex, cutoff: int = DEFAULT_CUTOFF) -> FockVector:
    """exp(-|a|^2/2) a**m / sqrt(m!) for m < cutoff."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    alpha = complex(alpha)
    amps = np.empty(cutoff, dtype=complex)
    amps[0] = 1.0
    for m in range(1, cutoff):
        amps[m] = amps[m - 1] * alpha / math.sqrt(m)
    amps *= math.exp(-abs(alpha) ** 2 / 2.0)
    return FockVector(cutoff, amps)


def inner(a: FockVector, b: FockVector) -> complex:
    if a.cutoff != b.cutoff:
        raise ValueError("Fock vectors have different cutoffs")
    return complex(np.vdot(a.amps, b.amps))


def overlap_exact(alpha: complex, beta: complex) -> complex:
    """Closed-form coherent overlap <alpha|beta>."""
    alpha, beta = complex(alpha), complex(beta)
    return np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2 - 2 * alpha.conjugate() * beta) / 2.0)


def orthonormal_pair(
    alpha: complex, beta: complex, cutoff: int = DEFAULT_CUTOFF
) -> tuple[FockVector, FockVector, float]:
    """Gram-Schmidt basis (b0, b1) from |alpha>, |beta>, plus the constant N1.

    b0 = |alpha>;  b1 = (|beta> - <alpha|beta>|alpha>)/N1 with N1 chosen
    so that b1 has unit norm, which works out to sqrt(1 - |<a|b>|^2).
    """
    if alpha == beta:
        raise ValueError("degenerate pair: alpha == beta")
    b0 = coherent_fock(alpha, cutoff)
    bvec = coherent_fock(beta, cutoff)
    ov = inner(b0, bvec)
    raw = bvec.amps - ov * b0.amps
    n1 = float(np.linalg.norm(raw))
    if n1 < 1e-12:
        raise ValueError("coherent vectors are numerically parallel")
    return b0, FockVector(cutoff, raw / n1), n1


@dataclass(frozen=True)
class HybridState:
    """Qubit (fermionic) factor times the orthonormal bosonic pair.

    amps[f, b] is the amplitude on |f>_f (x) basis[b].
    """

    basis: tuple[FockVector, FockVector]
    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amps, dtype=complex).reshape(2, 2)
        object.__setattr__(self, "amps", a)
        b0, b1 = self.basis
        if abs(inner(b0, b1)) > 1e-9:
            raise ValueError("bosonic basis is not orthonormal")

    def normalized(self) -> "HybridState":
        nrm = np.linalg.norm(self.amps)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return HybridState(self.basis, self.amps / nrm)


def _fermion_halves(sign: int) -> tuple[PlainState, PlainState]:
    """Single-qubit kets from the two-level Grassmann integral recipes.

    weight theta/sqrt(2) projects onto |0>/sqrt(2); weight -+1/sqrt(2)
    yields +-|1>/sqrt(2).
    """
    ctx = AlgebraContext(2)
    v = ctx.theta(1)
    gcs = coherent_state(ctx, v, 2)
    zero_half = apply_weight_and_integrate(
        IntegralSpec(ctx.gen(v) * (1.0 / math.sqrt(2.0)), (v,)), gcs
    )
    one_half = apply_weight_and_integrate(
        IntegralSpec(ctx.scalar(-sign / math.sqrt(2.0)), (v,)), gcs
    )
    return zero_half, one_half


@functools.cache
def _fermion_pair(sign: int) -> tuple[complex, complex]:
    """The |0> and |1> amplitudes of _fermion_halves(sign), integrated once per sign."""
    zero_half, one_half = _fermion_halves(sign)
    return zero_half.coefficient((0,)), one_half.coefficient((1,))


def _fermion_amplitudes(kind: str) -> tuple[complex, complex]:
    """The |0>_f and |1>_f amplitudes of a hybrid kind from _fermion_halves:
    1/sqrt(2) and +-1/sqrt(2), + for the *_plus kinds."""
    if kind not in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        raise ValueError(f"unknown hybrid kind {kind!r}")
    return _fermion_pair(1 if kind.endswith("plus") else -1)


def super_state(
    kind: str, alpha: complex, beta: complex, cutoff: int = DEFAULT_CUTOFF
) -> HybridState:
    """Maximally entangled hybrid state over fermion x boson.

    kind 'psi_plus'/'psi_minus' builds (|0>_f b1 +- |1>_f b0)/sqrt(2);
    'phi_plus'/'phi_minus' builds (|0>_f b0 +- |1>_f b1)/sqrt(2).  The
    fermionic amplitudes come from the Grassmann recipes in
    _fermion_halves; for the phi kinds the theta-weight recipe feeds the
    b0 branch (see the PHI_SUPER_WEIGHTS note).
    """
    z, o = _fermion_amplitudes(kind)
    b0, b1, _ = orthonormal_pair(alpha, beta, cutoff)
    amps = np.zeros((2, 2), dtype=complex)
    if kind.startswith("psi"):
        amps[0, 1] = z
        amps[1, 0] = o
    else:
        amps[0, 0] = z
        amps[1, 1] = o
    return HybridState((b0, b1), amps)


def hybrid_purity(state: HybridState) -> float:
    """Qubit purity of the 2x2 amplitude matrix: tr rho_f^2 + tr rho_b^2 - 1."""
    a = state.normalized().amps
    rho_f = a @ a.conj().T
    rho_b = a.conj().T @ a
    return float((np.trace(rho_f @ rho_f) + np.trace(rho_b @ rho_b)).real - 1.0)


def naive_super_matrix(
    kind: str, alpha: complex, beta: complex, cutoff: int = DEFAULT_CUTOFF
) -> np.ndarray:
    """2 x cutoff fermion-boson amplitudes without orthogonalization.

    The psi combination attaches |alpha> to the |0>_f branch and |beta>
    to |1>_f; phi swaps the attachments.  At alpha == beta the matrix has
    Schmidt rank 1 (a product state), which is the separable limit of the
    construction.
    """
    z, o = _fermion_amplitudes(kind)
    mat = np.zeros((2, cutoff), dtype=complex)
    if kind.startswith("psi"):
        mat[0] = z * coherent_fock(alpha, cutoff).amps
        mat[1] = o * coherent_fock(beta, cutoff).amps
    else:
        mat[0] = z * coherent_fock(beta, cutoff).amps
        mat[1] = o * coherent_fock(alpha, cutoff).amps
    return mat


def schmidt_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Normalized singular values of a bipartite amplitude matrix."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    nrm = np.linalg.norm(s)
    if nrm == 0.0:
        raise ValueError("zero state has no Schmidt decomposition")
    return s / nrm
