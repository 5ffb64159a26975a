"""Truncated Fock-space engine: states, operators and channels.

A cutoff N means the mode keeps photon numbers 0..N (dimension N + 1).
Multi-mode objects are stored with the first mode as the slowest index,
matching ``numpy.kron`` order.  Truncation is measured as the closed-form
tail of the thermal (and so TMSV) law, and :func:`_check_discarded` raises
:class:`TruncationError` above 1e-3 (QCB laws, FockTMSV.amplitude_matrix)
or 1e-6 (squeeze-operator reference); :func:`displacement` requires
|alpha|^2 <= (cutoff + 1) / 4.  Beam-splitter overflow is not yet measured.
All unitaries are built by one real kernel, :func:`_tridiagonal_expm`: each
generator is tridiagonal in a number basis up to a diagonal phase.

Everything is a pure function over immutable values; independent
cutoff-sweep evaluations can safely run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, TruncationError
from .gaussian import SqueezeParam

_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-8
_DISCARD_TOL = 1e-3  # largest probability mass a truncated distribution may lose
_SQUEEZE_DEFICIT_TOL = 1e-6


def _check_cutoff(cutoff: int) -> int:
    if int(cutoff) != cutoff or cutoff < 0:
        raise InvalidArgumentError(f"cutoff must be a non-negative integer, got {cutoff}")
    return int(cutoff)


def _check_discarded(name: str, discarded: float, cutoff: int, tol: float = _DISCARD_TOL):
    if not discarded <= tol:   # NaN fails too
        raise TruncationError(
            f"cutoff {cutoff} discards {discarded:.3e} of the {name} distribution, "
            f"above the tolerance {tol}; raise the cutoff"
        )


def _tridiagonal_expm(off: np.ndarray, theta: float, cols: int | None = None) -> np.ndarray:
    """exp(theta G)[:, :cols] of the real antisymmetric tridiagonal G with
    G[k+1, k] = -G[k, k+1] = off[k] (all columns by default).

    With D = diag(i^k), D'(iG)D is the real symmetric tridiagonal J with
    ``off`` on both off-diagonals, J = W diag(lam) W^T, so

        exp(theta G)[r, c] = i^(r-c) (W cos(theta lam) W^T - i W sin(theta lam) W^T)[r, c],

    which is the cosine part on even r - c and the sine part on odd r - c, with
    sign + for (r - c) mod 4 in {0, 1} and - otherwise: one real symmetric
    ``eigh`` gives the real result.  At theta = 0 it is exactly the identity.
    """
    n = off.size + 1
    cols = n if cols is None else cols
    if theta == 0.0:
        return np.eye(n, cols)
    lam, w = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w_in = w[:cols].T
    lag = np.arange(n)[:, None] - np.arange(cols)
    block = np.where(lag % 2 == 0, (w * np.cos(theta * lam)) @ w_in,
                     (w * np.sin(theta * lam)) @ w_in)
    return np.where(lag % 4 < 2, block, -block)


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
    cutoff = _check_cutoff(cutoff)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    adag = a.T.copy()
    n = np.diag(np.arange(cutoff + 1, dtype=float))
    for arr in (a, adag, n):
        arr.setflags(write=False)
    return ModeOps(cutoff=cutoff, a=a, adag=adag, number=n)


# ---------------------------------------------------------------------------
# Two-mode squeezed vacuum in the Fock basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockTMSV:
    """Photon-pair expansion of a two-mode squeezed vacuum.

    ``coeffs[n]`` multiplies |n>_s |n>_i and equals
    (e^{i phase} tanh kappa)^n / cosh kappa.  ``norm_deficit`` is the
    probability mass lost to the cutoff, the closed-form tail
    tanh^{2(N+1)} kappa of the thermal law |c_n|^2 (nbar = sinh^2 kappa).
    """

    sp: SqueezeParam
    cutoff: int
    coeffs: np.ndarray
    norm_deficit: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def amplitude_matrix(self) -> np.ndarray:
        """Renormalized two-mode amplitude tensor (only |n, n> populated);
        raises :class:`TruncationError` if ``norm_deficit`` is above 1e-3."""
        _check_discarded("TMSV pair", self.norm_deficit, self.cutoff)
        amp = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=complex)
        np.fill_diagonal(amp, self.coeffs / np.linalg.norm(self.coeffs))
        return amp


def tmsv_fock(sq: SqueezeParam, cutoff: int) -> FockTMSV:
    """Photon-pair coefficients of the TMSV up to a cutoff.

    Parameters
    ----------
    sq : SqueezeParam
        Squeezing modulus and phase.
    cutoff : int
        Largest photon number kept per mode.
    """
    cutoff = _check_cutoff(cutoff)
    n = np.arange(cutoff + 1)
    ratio = np.exp(1j * sq.phase) * math.tanh(sq.kappa)
    coeffs = ratio**n / math.cosh(sq.kappa)
    deficit = thermal_probabilities(sq.mean_photon, cutoff)[1]
    return FockTMSV(sp=sq, cutoff=cutoff, coeffs=coeffs, norm_deficit=deficit)


def squeeze_vacuum_operator(sq: SqueezeParam, cutoff: int) -> np.ndarray:
    """Two-mode squeezed vacuum built from the squeeze-operator exponential.

    Applies exp(zeta a_s' a_i' - zeta* a_s a_i) with zeta = kappa
    e^{i phase} to the two-mode vacuum on the truncated space (the
    exponential keeps the norm).  The generator leaves the pair sector |n, n>
    invariant, also when truncated, and is R kappa (L - L^T) R' there, with
    L[n+1, n] = n + 1 and R = diag(e^{i phase n}), so :func:`_tridiagonal_expm`
    gives the amplitudes.  The sign of zeta is fixed so that the
    phase-pi/2 result carries the i^n photon-pair coefficients; that
    convention is asserted by tests, not just documented.  Serves as an
    independent cross-check of :func:`tmsv_fock`.

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
    cutoff = _check_cutoff(cutoff)
    deficit = thermal_probabilities(sq.mean_photon, cutoff)[1]
    _check_discarded("TMSV pair", deficit, cutoff, _SQUEEZE_DEFICIT_TOL)
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
    matters (e.g. before matrix powers) via :meth:`min_eigenvalue`.
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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m') / 2 of a matrix or a stack of matrices (last two axes), after
    checking that each is Hermitian within 1e-10."""
    adj = np.swapaxes(m, -1, -2).conj()
    herm = np.max(np.abs(m - adj))
    if not herm <= _HERMITICITY_TOL:   # NaN fails too
        raise InvalidArgumentError(
            f"matrix not Hermitian within {_HERMITICITY_TOL}: deviation {herm:.3e}"
        )
    return (m + adj) / 2.0


def _check_unit_trace(tr: complex):
    if not abs(tr - 1.0) <= _TRACE_TOL:   # NaN fails too
        raise InvalidArgumentError(f"trace must be 1 within {_TRACE_TOL}, got {tr}")


def thermal_probabilities(nbar: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Truncated thermal photon distribution and the mass it discards.

    The law p(n) = nbar^n / (1 + nbar)^{n+1} (for nbar = sinh^2 kappa also
    |TMSV pair coefficient n|^2) is renormalized to sum to 1 over
    0..cutoff; the mass beyond, (nbar / (1 + nbar))^{cutoff+1}, is
    returned in closed form, so that a tiny tail keeps its precision.
    """
    cutoff = _check_cutoff(cutoff)
    if not math.isfinite(nbar) or nbar < 0.0:
        raise InvalidArgumentError(f"nbar must be finite and >= 0, got {nbar}")
    if nbar == 0.0:
        return np.eye(1, cutoff + 1)[0], 0.0
    log_ratio = math.log(nbar / (1.0 + nbar))
    raw = np.exp(np.arange(cutoff + 1) * log_ratio - math.log1p(nbar))
    return raw / float(raw.sum()), math.exp((cutoff + 1) * log_ratio)


def thermal_density(nbar: float, cutoff: int) -> DensityMatrix:
    """Thermal state with mean occupation ``nbar``, renormalized to trace 1."""
    p, _ = thermal_probabilities(nbar, cutoff)
    return DensityMatrix((cutoff + 1,), np.diag(p.astype(complex)))


# ---------------------------------------------------------------------------
# Unitaries: displacement and beam splitter
# ---------------------------------------------------------------------------


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of U'U and UU' from the identity."""
    eye = np.eye(u.shape[0])
    return float(
        max(np.max(np.abs(u.conj().T @ u - eye)), np.max(np.abs(u @ u.conj().T - eye)))
    )


def displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated displacement unitary exp(alpha a' - alpha* a).

    Requires |alpha|^2 well below the cutoff so the displaced vacuum
    fits within the kept levels; column 0 then reproduces the
    coherent-state coefficients e^{-|alpha|^2/2} alpha^n / sqrt(n!).
    Built as R D(|alpha|) R' with R = diag(e^{i arg(alpha) n}) and the real
    D(|alpha|) from :func:`_tridiagonal_expm`.
    """
    cutoff = _check_cutoff(cutoff)
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise InvalidArgumentError(f"alpha must be finite, got {alpha}")
    if abs(alpha) ** 2 > 0.25 * (cutoff + 1):
        raise TruncationError(f"|alpha|^2 = {abs(alpha) ** 2:.3g} too large for cutoff {cutoff}")
    phase = np.exp(1j * np.angle(alpha) * np.arange(cutoff + 1))
    real = _tridiagonal_expm(np.sqrt(np.arange(1.0, cutoff + 1)), abs(alpha))
    return phase[:, None] * real * phase.conj()


def beam_splitter_sector(total: int, dim_a: int, dim_b: int, theta: float,
                         max_input: int | None = None):
    """Beam-splitter block exp(theta (a'b - ab')) on one total-photon sector.

    The generator conserves n_a + n_b = total, so the unitary decomposes into
    one real orthogonal block per sector, indexed by the mode-a photon numbers
    ``s_vals`` (rows: output, columns: input).  Within the sector the generator
    is theta G with G real antisymmetric tridiagonal, G[k+1, k] = -G[k, k+1] =
    sqrt((s_k + 1)(total - s_k)), exponentiated by :func:`_tridiagonal_expm`;
    only the input columns with n_a <= ``max_input`` (all by default) are formed.

    Returns (s_vals, block), block of shape (len(s_vals), number of columns).
    """
    s_lo = max(0, total - (dim_b - 1))
    s_hi = min(total, dim_a - 1)
    s_vals = np.arange(s_lo, s_hi + 1)
    cols = s_vals.size if max_input is None else max(0, min(s_hi, max_input) - s_lo + 1)
    off = np.sqrt((s_vals[:-1] + 1.0) * (total - s_vals[:-1]))
    return s_vals, _tridiagonal_expm(off, theta, cols)


def beam_splitter_unitary(dim_a: int, dim_b: int, eta: float) -> np.ndarray:
    """Dense two-mode beam-splitter unitary exp(theta (a'b - ab')).

    ``eta`` is the transmissivity of mode a (cos^2 theta = eta); the
    mode operators map to a -> cos(theta) a + sin(theta) b and
    b -> cos(theta) b - sin(theta) a.  Assembled block-wise over total
    photon number.  Flat index convention: (n_a, n_b) -> n_a * dim_b + n_b.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidArgumentError(f"transmissivity must be in [0, 1], got {eta}")
    theta = math.acos(math.sqrt(eta))
    u = np.zeros((dim_a * dim_b, dim_a * dim_b))
    for total in range(dim_a + dim_b - 1):
        s_vals, block = beam_splitter_sector(total, dim_a, dim_b, theta)
        flat = s_vals * dim_b + (total - s_vals)
        u[np.ix_(flat, flat)] = block
    return u


def _apply_on_axes(tensor: np.ndarray, u: np.ndarray, dims: tuple[int, int], axes: tuple[int, int]):
    """Apply a two-mode operator to the given pair of tensor axes."""
    moved = np.moveaxis(tensor, axes, (0, 1))
    tail = moved.shape[2:]
    flat = moved.reshape(dims[0] * dims[1], -1)
    out = (u @ flat).reshape(dims + tail)
    return np.moveaxis(out, (0, 1), axes)


def beam_splitter(state, eta: float, modes: tuple[int, int] = (0, 1), mode_dims=None):
    """Mix two modes of a state on a beam splitter of transmissivity eta.

    ``state`` may be a :class:`DensityMatrix` (conjugated by the
    unitary, returning a DensityMatrix) or a pure-state amplitude array
    (returning an array of the same shape; ``mode_dims`` is then
    required).  Mode ``modes[0]`` keeps the fraction eta of its input.
    """
    j, k = (int(m) for m in modes)
    if j == k:
        raise InvalidArgumentError("beam splitter needs two distinct modes")
    if isinstance(state, DensityMatrix):
        dims = state.mode_dims
        _check_mode_pair(j, k, len(dims))
        u = beam_splitter_unitary(dims[j], dims[k], eta)
        n = len(dims)
        tens = state.matrix.reshape(dims + dims)
        # u is real, so it also acts on the bra axes as it is
        tens = _apply_on_axes(tens, u, (dims[j], dims[k]), (j, k))
        tens = _apply_on_axes(tens, u, (dims[j], dims[k]), (n + j, n + k))
        total = int(np.prod(dims))
        return DensityMatrix(dims, tens.reshape(total, total))
    if mode_dims is None:
        raise InvalidArgumentError("mode_dims is required for pure-state input")
    dims = tuple(int(d) for d in mode_dims)
    _check_mode_pair(j, k, len(dims))
    vec = np.asarray(state, dtype=complex)
    u = beam_splitter_unitary(dims[j], dims[k], eta)
    tens = _apply_on_axes(vec.reshape(dims), u, (dims[j], dims[k]), (j, k))
    return tens.reshape(vec.shape)


def _check_mode_pair(j: int, k: int, n_modes: int):
    if not (0 <= j < n_modes and 0 <= k < n_modes):
        raise InvalidArgumentError(f"mode pair ({j}, {k}) out of range for {n_modes} modes")


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
