"""Shared numerical oracles for the test suite.

The moment oracle below recomputes covariance entries directly from a
photon-pair state vector with truncated-space operator applications; it
shares no code path with the closed-form covariance construction it is
used to check.  The beam-splitter, squeeze and displacement oracles
exponentiate the dense truncated generators with scipy, sharing nothing
with the tridiagonal eigendecomposition in ``mqisim.fock``.
"""

import math

import numpy as np

from mqisim import SqueezeParam, tmsv_fock
from reference import amplitude_matrix, mode_ops


def fock_second_moments(kappa: float, cutoff: int, phase: float = math.pi / 2) -> np.ndarray:
    """4x4 symmetrized quadrature second-moment matrix of a TMSV.

    Built by applying the truncated quadrature operator matrices to the
    photon-pair amplitude tensor (signal axis 0, idler axis 1) and
    taking inner products of the resulting vectors.
    """
    psi = amplitude_matrix(tmsv_fock(SqueezeParam(kappa, phase), cutoff))
    ops = mode_ops(cutoff)

    def apply(op, axis):
        if axis == 0:
            return np.tensordot(op, psi, axes=([1], [0]))
        return np.tensordot(psi, op, axes=([1], [1]))

    applied = [apply(ops.q, 0), apply(ops.p, 0), apply(ops.q, 1), apply(ops.p, 1)]
    out = np.empty((4, 4))
    for j in range(4):
        for k in range(4):
            out[j, k] = np.real(np.vdot(applied[j], applied[k]))
    return (out + out.T) / 2.0


def moment_cutoff(kappa: float, tol: float = 1e-8) -> int:
    """Smallest cutoff whose geometric-tail bound on <q^2> is below tol/10.

    The photon-number tail beyond N contributes about
    2 (t^2)^{N+1} ((N+1) - N t^2) / (1 - t^2) to the diagonal second
    moments, t = tanh(kappa).
    """
    if kappa == 0.0:
        return 1
    t2 = math.tanh(kappa) ** 2
    for n in range(1, 5000):
        bound = 2.0 * t2 ** (n + 1) * ((n + 1) - n * t2) / (1.0 - t2)
        if bound < tol / 10.0:
            return max(n, 4)
    raise AssertionError("no admissible cutoff found")


def riemann_mass(grid) -> float:
    """Plain cell-sum quadrature of a Wigner grid."""
    step = float(grid.axis[1] - grid.axis[0])
    return float(np.sum(grid.values)) * step * step


def truncated_beam_splitter_expm(dim_a: int, dim_b: int, eta: float) -> np.ndarray:
    """scipy expm of theta (a'b - ab') on the truncated two-mode space, cos^2 theta = eta.

    Flat index (n_a, n_b) -> n_a * dim_b + n_b, as ``beam_splitter_unitary``.
    """
    from scipy.linalg import expm

    a = np.kron(np.diag(np.sqrt(np.arange(1.0, dim_a)), 1), np.eye(dim_b))
    b = np.kron(np.eye(dim_a), np.diag(np.sqrt(np.arange(1.0, dim_b)), 1))
    return expm(math.acos(math.sqrt(eta)) * (a.T @ b - a @ b.T))


def truncated_squeeze_expm(sq, cutoff: int) -> np.ndarray:
    """scipy expm of zeta a_s' a_i' - zeta* a_s a_i on the full truncated two-mode
    space applied to the vacuum, zeta = kappa e^{i phase}.

    Returns the amplitude tensor, signal axis 0, as ``squeeze_vacuum_operator``.
    """
    from scipy.linalg import expm

    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    pair = np.kron(a, a)   # a_s a_i
    zeta = sq.kappa * np.exp(1j * sq.phase)
    return expm(zeta * pair.T - np.conj(zeta) * pair)[:, 0].reshape(d, d)


def displacement_expm(alpha: complex, cutoff: int) -> np.ndarray:
    """scipy expm of the dense truncated generator alpha a' - alpha* a."""
    from scipy.linalg import expm

    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    return expm(alpha * a.T - np.conj(alpha) * a)


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho_a - rho_b)
    return 0.5 * float(np.sum(np.abs(eigs)))
