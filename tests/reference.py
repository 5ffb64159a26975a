"""Dense Fock-space reference algebra for the test suite.

The package never forms a dense multi-mode state: the QCB holds rho0 as
its diagonal and rho1 as blocks, and the entangled transmitter's channel
as sector amplitudes.  The dense constructions here (mode operators,
density matrices, the dense beam-splitter unitary and its action on a
state, partial traces, expectations, the squeeze-operator exponential and
the dense views of a hypothesis pair) are the independent cross-checks
the tests compare those kernels with.  They reuse the package's input
checks and sector kernel, :func:`mqisim.fock.beam_splitter_amplitudes`,
whose own dense check is the scipy exponential in ``conftest.py``.
"""

from dataclasses import dataclass

import numpy as np

from mqisim.errors import InvalidArgumentError, TruncationError, check_count
from mqisim.fock import (
    _check_discarded,
    _check_unit_trace,
    _hermitian_part,
    _tridiagonal_expm,
    beam_splitter_amplitudes,
    thermal_probabilities,
)
from mqisim.qcb import HypothesisPair

SQUEEZE_DEFICIT_TOL = 1e-6


@dataclass(frozen=True)
class ModeOps:
    """Dense matrix representations of a, a' and the number operator.

    a|n> = sqrt(n)|n-1> exactly; on the truncated space [a, a'] equals
    the identity except at the top level n = cutoff, where the diagonal
    entry is -cutoff instead of 1.
    """

    cutoff: int
    a: np.ndarray
    adag: np.ndarray
    number: np.ndarray

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @property
    def q(self) -> np.ndarray:
        """Position-like quadrature a + a'."""
        return self.a + self.adag

    @property
    def p(self) -> np.ndarray:
        """Momentum-like quadrature i(a' - a)."""
        return 1j * (self.adag - self.a)


def mode_ops(cutoff: int) -> ModeOps:
    """Build the single-mode operator set for a cutoff."""
    cutoff = check_count("cutoff", cutoff)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    adag = a.T.copy()
    n = np.diag(np.arange(cutoff + 1, dtype=float))
    for arr in (a, adag, n):
        arr.setflags(write=False)
    return ModeOps(cutoff=cutoff, a=a, adag=adag, number=n)


def amplitude_matrix(state) -> np.ndarray:
    """Renormalized two-mode amplitude tensor of a :class:`mqisim.fock.FockTMSV`
    (only |n, n> populated); raises :class:`TruncationError` if its
    ``norm_deficit`` is above 1e-3."""
    _check_discarded("TMSV pair", state.norm_deficit, state.cutoff)
    amp = np.zeros((state.cutoff + 1, state.cutoff + 1), dtype=complex)
    np.fill_diagonal(amp, state.coeffs / np.linalg.norm(state.coeffs))
    return amp


def squeeze_vacuum_operator(sq, cutoff: int) -> np.ndarray:
    """Two-mode squeezed vacuum built from the squeeze-operator exponential.

    Applies exp(zeta a_s' a_i' - zeta* a_s a_i) with zeta = kappa
    e^{i phase} to the two-mode vacuum on the truncated space (the
    exponential keeps the norm).  The generator leaves the pair sector |n, n>
    invariant, also when truncated, and is R kappa (L - L^T) R' there, with
    L[n+1, n] = n + 1 and R = diag(e^{i phase n}), so :func:`_tridiagonal_expm`
    gives the amplitudes.  The sign of zeta is fixed so that the
    phase-pi/2 result carries the i^n photon-pair coefficients; that
    convention is asserted by tests, not just documented.  Serves as an
    independent cross-check of :func:`mqisim.fock.tmsv_fock`.

    Returns
    -------
    np.ndarray
        Complex amplitude tensor of shape (cutoff + 1, cutoff + 1).

    Raises
    ------
    TruncationError
        If the pair expansion discards tanh^{2(cutoff+1)}(kappa) > 1e-6,
        i.e. the cutoff is too small for the squeeze strength.
    """
    cutoff = check_count("cutoff", cutoff)
    deficit = thermal_probabilities(sq.mean_photon, cutoff)[1]
    if not deficit <= SQUEEZE_DEFICIT_TOL:   # NaN fails too
        raise TruncationError(
            f"cutoff {cutoff} discards {deficit:.3e} of the TMSV pair distribution, "
            f"above the tolerance {SQUEEZE_DEFICIT_TOL}; raise the cutoff"
        )
    column = _tridiagonal_expm(np.arange(1.0, cutoff + 1), sq.kappa, 1)[:, 0]
    return np.diag(np.exp(1j * sq.phase * np.arange(cutoff + 1)) * column)


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian operator on a truncated multi-mode Fock space.

    ``mode_dims`` lists the per-mode dimensions (cutoff + 1 each); the
    matrix dimension is their product.  Construction checks hermiticity
    (1e-10) and unit trace (1e-8); positivity is checked where it
    matters via :meth:`min_eigenvalue`.
    """

    mode_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.mode_dims)
        if not dims or any(d < 1 for d in dims):
            raise InvalidArgumentError(f"mode_dims must be positive, got {self.mode_dims}")
        m = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(dims))
        if m.shape != (total, total):
            raise InvalidArgumentError(
                f"matrix shape {m.shape} does not match mode_dims product {total}"
            )
        herm = _hermitian_part(m)
        _check_unit_trace(complex(np.trace(m)))
        herm.setflags(write=False)
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "matrix", herm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @classmethod
    def from_pure(cls, vec: np.ndarray, mode_dims) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(tuple(int(d) for d in mode_dims), np.outer(v, v.conj()))


def thermal_density(nbar: float, cutoff: int) -> DensityMatrix:
    """Thermal state with mean occupation ``nbar``, renormalized to trace 1."""
    p, _ = thermal_probabilities(nbar, cutoff)
    return DensityMatrix((cutoff + 1,), np.diag(p.astype(complex)))


# ---------------------------------------------------------------------------
# The dense beam splitter
# ---------------------------------------------------------------------------


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of U'U and UU' from the identity."""
    eye = np.eye(u.shape[0])
    return float(
        max(np.max(np.abs(u.conj().T @ u - eye)), np.max(np.abs(u @ u.conj().T - eye)))
    )


def beam_splitter_unitary(dim_a: int, dim_b: int, eta: float) -> np.ndarray:
    """Dense two-mode beam-splitter unitary exp(theta (a'b - ab')).

    ``eta`` is the transmissivity of mode a (cos^2 theta = eta); the
    mode operators map to a -> cos(theta) a + sin(theta) b and
    b -> cos(theta) b - sin(theta) a.  :func:`beam_splitter_amplitudes`
    scattered with the flat index (n_a, n_b) -> n_a * dim_b + n_b.
    """
    amp = beam_splitter_amplitudes(dim_a, dim_b, eta, dim_a - 1)
    s, i, m = np.indices(amp.shape)
    out_b = i + m - s
    inside = (0 <= out_b) & (out_b < dim_b)
    u = np.zeros((dim_a * dim_b, dim_a * dim_b))
    u[(s * dim_b + out_b)[inside], (i * dim_b + m)[inside]] = amp[inside]
    return u


def beam_splitter(state, eta: float, modes: tuple[int, int] = (0, 1), mode_dims=None):
    """Mix two modes of a state on a beam splitter of transmissivity eta.

    ``state`` may be a :class:`DensityMatrix` (conjugated by the
    unitary, returning a DensityMatrix) or a pure-state amplitude array
    (returning an array of the same shape; ``mode_dims`` is then
    required).  Mode ``modes[0]`` keeps the fraction eta of its input.
    """
    is_density = isinstance(state, DensityMatrix)
    if not is_density and mode_dims is None:
        raise InvalidArgumentError("mode_dims is required for pure-state input")
    dims = state.mode_dims if is_density else tuple(int(d) for d in mode_dims)
    flat = state.matrix if is_density else np.asarray(state, dtype=complex)
    n, (j, k) = len(dims), (int(m) for m in modes)
    if j == k or not (0 <= j < n and 0 <= k < n):
        raise InvalidArgumentError(f"beam splitter needs two distinct modes of {n}, got ({j}, {k})")
    u = beam_splitter_unitary(dims[j], dims[k], eta)
    # u is real, so it acts on the ket axes and, of a density matrix, the bra axes as it is
    pairs = ((j, k), (n + j, n + k))[:1 + is_density]
    tens = flat.reshape(dims * len(pairs))
    for axes in pairs:
        moved = np.moveaxis(tens, axes, (0, 1))
        tens = np.moveaxis((u @ moved.reshape(u.shape[0], -1)).reshape(moved.shape), (0, 1), axes)
    tens = tens.reshape(flat.shape)
    return DensityMatrix(dims, tens) if is_density else tens


# ---------------------------------------------------------------------------
# Partial trace and expectations
# ---------------------------------------------------------------------------


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce a multi-mode density matrix to the modes listed in ``keep``.

    The kept modes stay in ascending original order.  Trace and
    hermiticity are preserved by construction.
    """
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_modes
    if not keep or any(k < 0 or k >= n for k in keep):
        raise InvalidArgumentError(f"keep must name modes of a {n}-mode state, got {keep}")
    dims = rho.mode_dims
    # axis labels: ket axis i is i, bra axis i is n + i if kept, else i (traced out)
    bra = [n + i if i in keep else i for i in range(n)]
    tens = rho.matrix.reshape(dims + dims)
    reduced = np.einsum(tens, [*range(n), *bra], [*keep, *(n + i for i in keep)])
    kept_dims = tuple(dims[i] for i in keep)
    total = int(np.prod(kept_dims))
    return DensityMatrix(kept_dims, reduced.reshape(total, total))


def expectation(operator: np.ndarray, state) -> complex:
    """tr(O rho) for a DensityMatrix or <psi|O|psi> for an amplitude array."""
    op = np.asarray(operator, dtype=complex)
    if isinstance(state, DensityMatrix):
        if op.shape != state.matrix.shape:
            raise InvalidArgumentError(
                f"operator shape {op.shape} does not match state dimension {state.dim}"
            )
        return complex(np.trace(op @ state.matrix))
    vec = np.asarray(state, dtype=complex).ravel()
    if op.shape != (vec.size, vec.size):
        raise InvalidArgumentError(
            f"operator shape {op.shape} does not match state dimension {vec.size}"
        )
    return complex(np.vdot(vec, op @ vec))


def embed_operator(op: np.ndarray, mode: int, mode_dims) -> np.ndarray:
    """Embed a single-mode operator into a multi-mode space (kron with identities)."""
    dims = tuple(int(d) for d in mode_dims)
    if not 0 <= mode < len(dims):
        raise InvalidArgumentError(f"mode {mode} out of range for {len(dims)} modes")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[mode], dims[mode]):
        raise InvalidArgumentError(
            f"operator shape {op.shape} does not match mode dimension {dims[mode]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == mode else np.eye(d))
    return out


def number_expectation(state, mode: int, mode_dims=None) -> float:
    """Mean photon number of one mode of a DensityMatrix or amplitude array."""
    dims = state.mode_dims if isinstance(state, DensityMatrix) else tuple(mode_dims)
    n_op = embed_operator(mode_ops(dims[mode] - 1).number, mode, dims)
    return float(np.real(expectation(n_op, state)))


# ---------------------------------------------------------------------------
# Dense views of a hypothesis pair
# ---------------------------------------------------------------------------


def pair_from_states(rho0: DensityMatrix, rho1: DensityMatrix) -> HypothesisPair:
    """Pair of two dense states on the same space, held in rho0's eigenbasis:
    with rho0 = U diag(p0) U', ``p0`` and the single block U' rho1 U."""
    if rho0.mode_dims != rho1.mode_dims:
        raise InvalidArgumentError(
            f"hypotheses must share a dimension, got {rho0.mode_dims} and {rho1.mode_dims}"
        )
    p0, u = np.linalg.eigh(rho0.matrix)
    block = u.conj().T @ rho1.matrix @ u
    return HypothesisPair(rho0.mode_dims, p0, ((np.arange(rho0.dim)[None], block[None]),))


def dense_rho0(pair: HypothesisPair) -> DensityMatrix:
    """rho0 of a pair as a dense state: its diagonal ``p0``."""
    return DensityMatrix(pair.mode_dims, np.diag(pair.p0.astype(complex)))


def dense_rho1(pair: HypothesisPair) -> DensityMatrix:
    """rho1 of a pair as a dense state: its blocks scattered to their index."""
    m = np.zeros((pair.dim, pair.dim), dtype=complex)
    for index, stack in pair.stacks:
        m[index[:, :, None], index[:, None, :]] = stack
    return DensityMatrix(pair.mode_dims, m)
