"""Hardened numerical primitives shared by all model code.

Everything in this module is a pure function on immutable inputs: Hermitian
positive-definite matrix operations (Cholesky with escalating diagonal
loading), log-domain accumulation (``logsumexp`` and the posterior
normalization that every mixture E-step shares), and the Bessel-based
normalizer of the von-Mises-Fisher density. The one exception is the
posterior normalization, which works in place on its logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidInputError, NumericalError

# Rescue ladder for factorizations; covariances produced by the M-steps are
# already loaded with the 1e-10 default at construction, so factorization
# first tries the matrix as-is and escalates only on failure.
LOADING_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

# Below this value the exponentially scaled Bessel function has lost too
# much precision (or underflowed) and the log-domain series takes over.
_IVE_FLOOR = 1e-280


@dataclass(frozen=True)
class HermitianPD:
    """Hermitian matrix intended to be positive definite.

    The constructor symmetrizes the entries exactly, so
    ``entries[i, j] == conj(entries[j, i])`` always holds. Positive
    definiteness is the business of :func:`diagonal_load` and the loading
    ladder inside the factorization helpers.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("matrix entries must be finite")
        object.__setattr__(self, "entries", (m + m.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _load_stack(mats: np.ndarray, eps_rel: float) -> np.ndarray:
    """Add ``eps_rel * trace/C`` to the diagonal of a (..., C, C) stack.

    Matrices whose trace is not positive fall back to absolute loading
    ``eps_rel * I``.
    """
    c = mats.shape[-1]
    scale = np.einsum("...ii->...", mats).real / c
    scale = np.where(scale > 0.0, scale, 1.0)
    return mats + (eps_rel * scale)[..., None, None] * np.eye(c)


def chol_with_loading(mats: np.ndarray) -> np.ndarray:
    """Batched Cholesky of Hermitian stacks, escalating the diagonal loading.

    Args:
        mats: array of shape (..., C, C), Hermitian along the last two axes.

    Returns:
        Lower Cholesky factors of the loaded matrices, same shape.

    Raises:
        InvalidInputError: non-finite entries.
        NumericalError: factorization still fails at the top of the ladder.
    """
    mats = np.asarray(mats, dtype=complex)
    if not np.all(np.isfinite(mats)):
        raise InvalidInputError("non-finite entries in matrix stack")
    for eps in LOADING_LADDER:
        try:
            return np.linalg.cholesky(mats if eps == 0.0 else _load_stack(mats, eps))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("Cholesky factorization failed after maximum diagonal loading")


def _tril_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a (..., C, C) lower-triangular stack by forward substitution."""
    c = lower.shape[-1]
    inv = np.zeros_like(lower)
    for i in range(c):
        row = -np.einsum("...j,...jk->...k", lower[..., i, :i], inv[..., :i, :])
        row[..., i] += 1.0
        inv[..., i, :] = row / lower[..., i, i, None]
    return inv


def chol_logdet_quad(mats: np.ndarray, rhs: np.ndarray):
    """Log-determinants and quadratic forms for Hermitian PD stacks.

    The batched reference for the EM's kernel ``cacg.quad_forms``, kept for
    the tests and the per-layer tracer; the model code no longer calls it.
    Computes ``logdet(M)`` and ``Re(v^H M^{-1} v)`` for every matrix of the
    stack and every right-hand-side column from one Cholesky factorization
    per matrix: the C x C factor is inverted once and applied with
    ``matmul``, one slice of the leading axis at a time, and ``quad`` is the
    squared norm of ``L^{-1} v``, which cannot be negative.

    Args:
        mats: (..., C, C) Hermitian stack.
        rhs: (..., C) single vectors or (..., C, T) columns; leading axes
            broadcast against the stack.

    Returns:
        Tuple ``(logdet, quad)`` with shapes (...,) and (..., T) (or (...,)
        for single vectors).
    """
    mats = np.asarray(mats, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if not np.all(np.isfinite(rhs)):
        raise InvalidInputError("non-finite entries in right-hand side")
    single = rhs.ndim == mats.ndim - 1
    if single:
        rhs = rhs[..., None]
    L = chol_with_loading(mats)
    diag = np.einsum("...ii->...i", L).real
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    batch = np.broadcast_shapes(L.shape[:-2], rhs.shape[:-2])
    linv = np.broadcast_to(_tril_inverse(L), batch + L.shape[-2:])
    rhs = np.broadcast_to(rhs, batch + rhs.shape[-2:])
    quad = np.empty(batch + rhs.shape[-1:])
    for i in np.ndindex(batch[:1]):
        z = linv[i] @ rhs[i]
        quad[i] = np.einsum("...ct,...ct->...t", z.real, z.real) + np.einsum(
            "...ct,...ct->...t", z.imag, z.imag
        )
    if single:
        quad = quad[..., 0]
    return logdet, quad


def psd_solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M x = rhs`` for Hermitian PD stacks via loaded Cholesky."""
    mats = np.asarray(mats, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    single = rhs.ndim == mats.ndim - 1
    if single:
        rhs = rhs[..., None]
    L = chol_with_loading(mats)
    z = np.linalg.solve(L, np.broadcast_to(rhs, L.shape[:-2] + rhs.shape[-2:]))
    x = np.linalg.solve(np.conj(np.swapaxes(L, -1, -2)), z)
    if single:
        x = x[..., 0]
    return x


def cholesky_logdet_solve(m: HermitianPD, v: np.ndarray):
    """Evaluate ``log det(M)`` and ``Re(v^H M^{-1} v)`` in one factorization.

    The scalar reference for :func:`chol_logdet_quad`: one factor, one
    triangular solve. ``scipy.linalg`` is imported here, off the import path
    of the package, since only this reference uses it.

    Args:
        m: Hermitian PD matrix.
        v: complex vector of matching dimension.

    Returns:
        Tuple ``(logdet, quad)`` of floats; ``quad`` is nonnegative.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != m.dim:
        raise InvalidInputError(f"vector of dim {v.shape} does not match matrix dim {m.dim}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("non-finite entries in right-hand side")
    from scipy.linalg import solve_triangular

    L = chol_with_loading(m.entries)
    z = solve_triangular(L, v, lower=True)
    logdet = 2.0 * float(np.log(np.diag(L).real).sum())
    return logdet, float(np.vdot(z, z).real)


def diagonal_load(m: HermitianPD, eps_rel: float) -> HermitianPD:
    """Return ``m + eps_rel * (trace(m)/C) * I`` (absolute loading if trace <= 0)."""
    if not (eps_rel > 0.0):
        raise InvalidInputError("eps_rel must be positive")
    return HermitianPD(_load_stack(m.entries, eps_rel))


def _log_bessel_series(order: float, x: float) -> float:
    """Ascending series of ln I_order(x) evaluated fully in the log domain.

    Used when the exponentially scaled Bessel function underflows, i.e. for
    small arguments at large orders where only a handful of terms matter.
    """
    log_half_x = math.log(0.5 * x)
    terms = []
    best = -math.inf
    for m in range(500):
        t = (order + 2 * m) * log_half_x - math.lgamma(m + 1) - math.lgamma(order + m + 1)
        terms.append(t)
        best = max(best, t)
        if m > 2 and t < best - 60.0:
            break
    return logsumexp(np.asarray(terms))


def log_bessel_i(order: float, x: float) -> float:
    """ln I_order(x) for x >= 0, finite over the whole working range."""
    if x < 0.0:
        raise InvalidInputError("Bessel argument must be nonnegative")
    if x == 0.0:
        return 0.0 if order == 0 else -math.inf
    scaled = float(special.ive(order, x))
    if scaled > _IVE_FLOOR:
        return math.log(scaled) + x
    return _log_bessel_series(order, x)


def log_vmf_normalizer(embed_dim: int, kappa: float) -> float:
    """Log normalizer ln c(kappa) of the von-Mises-Fisher density.

    ``c(kappa) = kappa^(E/2-1) / ((2 pi)^(E/2) I_(E/2-1)(kappa))`` with the
    continuous limit at ``kappa = 0`` (the uniform density on the sphere).
    Finite for kappa up to at least 1e4 at any supported dimension.

    Args:
        embed_dim: dimension E of the hypersphere's ambient space, E >= 2.
        kappa: concentration, >= 0.

    Returns:
        ln c(kappa) as a float.
    """
    if embed_dim < 2 or int(embed_dim) != embed_dim:
        raise InvalidInputError("embedding dimension must be an integer >= 2")
    if math.isnan(kappa) or kappa < 0.0:
        raise InvalidInputError("kappa must be >= 0")
    half = embed_dim / 2.0
    if kappa == 0.0:
        return math.lgamma(half) - math.log(2.0) - half * math.log(math.pi)
    nu = half - 1.0
    return nu * math.log(kappa) - half * math.log(2.0 * math.pi) - log_bessel_i(nu, kappa)


def bessel_ratio(dim: int, kappa: float) -> float | None:
    """Mean resultant length A(kappa) = I_{E/2}(kappa) / I_{E/2-1}(kappa).

    Returns None when the exponentially scaled Bessel values underflow
    (tiny kappa at large order), where callers fall back to the small-kappa
    behaviour A ~ kappa / E.
    """
    nu = dim / 2.0 - 1.0
    den = float(special.ive(nu, kappa))
    num = float(special.ive(nu + 1.0, kappa))
    if not (math.isfinite(num) and math.isfinite(den)) or den <= 1e-290:
        return None
    return num / den


def logsumexp(values, axis=None):
    """ln sum exp of ``values``, exact under shift by the maximum.

    All ``-inf`` input yields ``-inf``; NaN input is rejected.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidInputError("logsumexp of an empty collection")
    if np.isnan(v).any():
        raise InvalidInputError("NaN in logsumexp input")
    m = np.max(v, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(v - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def normalize_logits(logits: np.ndarray, axis: int = 0):
    """Posterior of mixture logits, normalized along ``axis`` in the log domain.

    Works in place: ``logits`` is shifted by its maximum along ``axis``,
    exponentiated and divided by its sum, so no array of its size is
    allocated. NaN input is rejected.

    Returns:
        ``(posterior, loglik)``: ``logits`` itself, now holding
        ``exp(logits - logsumexp(logits, axis))``, and the sum of the
        per-observation log normalizers.
    """
    shift = np.max(logits, axis=axis, keepdims=True)
    if np.isnan(shift).any():
        raise InvalidInputError("NaN in mixture logits")
    shift[~np.isfinite(shift)] = 0.0
    logits -= shift
    np.exp(logits, out=logits)
    total = logits.sum(axis=axis, keepdims=True)
    logits /= total
    with np.errstate(divide="ignore"):
        return logits, float((np.log(total) + shift).sum())
