"""Hardened numerical primitives shared by all model code.

Everything in this module is a pure function on immutable inputs: Hermitian
positive-definite matrix operations (Cholesky with escalating diagonal
loading), the log-domain posterior normalization of the vMF mixture and of
the cACG E-step's rescue, the Bessel series behind the von-Mises-Fisher
normalizer and concentration update, the floored prior update of all three
mixtures, and the min-cost assignment that matches speakers.
The one exception is the posterior normalization, which works in place on
its logits.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .errors import InvalidInputError, NumericalError

logger = logging.getLogger(__name__)

# Rescue ladder for factorizations; covariances produced by the M-steps are
# already loaded with the 1e-10 default at construction, so factorization
# first tries the matrix as-is and escalates only on failure.
LOADING_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
# Least mixture weight a prior update leaves a component.
PRIOR_FLOOR = 1e-10


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

    A factorization that needs loading beyond the first rung logs one
    warning with the loading used and the size of the stack.

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
    for rung, eps in enumerate(LOADING_LADDER):
        try:
            lower = np.linalg.cholesky(mats if eps == 0.0 else _load_stack(mats, eps))
        except np.linalg.LinAlgError:
            continue
        if rung > 0:
            logger.warning(
                "Cholesky of a stack of %d %dx%d matrices needed diagonal loading %g",
                math.prod(mats.shape[:-2]), mats.shape[-1], mats.shape[-1], eps,
            )
        return lower
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

    The batched reference for the forms of the EM's kernels
    ``cacg._form_coefficients`` and ``cacg._forms``, kept for the tests and
    the per-layer tracer; the model code no longer calls it.
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


# Above this argument the largest series terms come near exp(709), the
# float64 overflow, so they are shifted by their maximum first.
_BESSEL_SHIFT_ABOVE = 500.0


@functools.lru_cache(maxsize=64)
def _bessel_terms(nu: float, n_terms: int):
    """Read-only tables of the first ``n_terms`` series terms of order ``nu``.

    Returns ``2m`` and ``ln m! + ln Gamma(m+nu+1) - ln Gamma(nu+1) + 2m ln 2``
    for m = 0 .. n_terms-1, so that ``2m ln x`` minus the second is the log
    of the m-th term relative to the first, and the (n_terms, 2) matrix
    ``[1, 1/(2(m+nu+1))]`` whose product with the terms gives the sums behind
    ``I_nu`` and ``I_{nu+1}`` at once. Cached because, at the concentrations
    of the EM (kappa <= 35, a few components), building the tables costs as
    much as the series itself.
    """
    m = np.arange(n_terms, dtype=float)
    lgam = 2.0 * math.log(2.0) * m
    lgam[1:] += np.cumsum(np.log(m[1:] * (m[1:] + nu)))
    weights = np.stack([np.ones(n_terms), 0.5 / (m + nu + 1.0)], axis=1)
    tables = (2.0 * m, lgam, weights)
    for t in tables:
        t.flags.writeable = False
    return tables


def bessel_i_series(nu: float, kappa):
    """ln I_nu(kappa), less a closed-form term, and A = I_{nu+1} / I_nu.

    Both come from the ascending series ``I_nu(x) = sum_m (x/2)^(2m+nu) /
    (m! Gamma(m+nu+1))``, summed in the log domain over one (..., M) array of
    terms relative to the first. Every term is positive, so nothing cancels
    at any order or argument, and the sum is at least its first term, 1, so
    nothing underflows. The log-gamma terms are cumulative sums of logs, and
    the terms run to at least ``m = kappa/2 + sqrt(40 kappa) + 40`` for the
    largest kappa: past the series peak near ``m = kappa/2`` they fall off
    like a Gaussian of width ``sqrt(kappa)/2``, so the last one is below
    ``exp(-79)`` of it. M is rounded up to a multiple of 32 so that the
    tables of a few sizes serve every call.

    Like an exponentially scaled Bessel function, the first result leaves
    out a closed-form factor: ``ln I_nu(kappa) = log_series + nu ln(kappa/2)
    - ln Gamma(nu+1)``. The vMF normalizer needs exactly ``log_series``, so
    it never forms and cancels ``nu ln kappa``.

    Args:
        nu: order, >= 0.
        kappa: array of arguments, each > 0.

    Returns:
        ``(log_series, ratio)``, arrays of the shape of ``kappa``.
    """
    kappa = np.asarray(kappa, dtype=float)
    peak = float(kappa.max(initial=0.0))
    n_terms = 32 * math.ceil((0.5 * peak + math.sqrt(40.0 * peak) + 41.0) / 32.0)
    two_m, lgam, weights = _bessel_terms(float(nu), n_terms)
    terms = np.log(kappa)[..., None] * two_m
    terms -= lgam
    shifted = peak > _BESSEL_SHIFT_ABOVE
    if shifted:
        top = terms.max(axis=-1, keepdims=True)
        terms -= top
    np.exp(terms, out=terms)
    sums = terms @ weights
    total = sums[..., 0]
    log_series = np.log(total)
    if shifted:
        log_series += top[..., 0]
    return log_series, kappa * sums[..., 1] / total


def log_vmf_normalizer(embed_dim: int, kappa):
    """Log normalizer ln c(kappa) of the von-Mises-Fisher density.

    ``c(kappa) = kappa^(E/2-1) / ((2 pi)^(E/2) I_(E/2-1)(kappa))`` with the
    continuous limit at ``kappa = 0`` (the uniform density on the sphere).
    It is :func:`uniform_log_density` less the first result of
    :func:`bessel_i_series`, so a caller that already holds the series at
    kappa needs no further series.
    Within 1e-12 relative of a 60-digit reference for E from 2 to 256 and
    kappa from 1e-8 to 1e4, the range the tests check. Finite for any finite
    kappa, but the series of :func:`bessel_i_series` has about kappa/2
    terms, so cost and memory grow linearly with kappa.

    Args:
        embed_dim: dimension E of the hypersphere's ambient space, E >= 2.
        kappa: concentration, >= 0; a float, or an array of them.

    Returns:
        ln c(kappa): a float for a float, an array of its shape for an array.
    """
    if embed_dim < 2 or int(embed_dim) != embed_dim:
        raise InvalidInputError("embedding dimension must be an integer >= 2")
    k = np.asarray(kappa, dtype=float)
    if not np.all((k >= 0.0) & np.isfinite(k)):
        raise InvalidInputError("kappa must be finite and >= 0")
    half = embed_dim / 2.0
    log_series = np.zeros(k.shape)  # its kappa = 0 limit
    pos = k > 0.0
    log_series[pos] = bessel_i_series(half - 1.0, k[pos])[0]
    out = uniform_log_density(embed_dim) - log_series
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def uniform_log_density(embed_dim: int) -> float:
    """ln c(0): the log density of the uniform distribution on the unit
    sphere of R^E, the vMF normalizer's limit at ``kappa = 0``."""
    half = embed_dim / 2.0
    return (half - 1.0) * math.log(2.0) + math.lgamma(half) - half * math.log(2.0 * math.pi)


def normalize_logits(logits: np.ndarray):
    """Posterior of mixture logits, normalized over components (axis 0) in
    the log domain.

    Works in place: ``logits`` is shifted by its maximum over components,
    exponentiated and divided by its sum, so no array of its size is
    allocated. NaN input is rejected.

    Returns:
        ``(posterior, loglik)``: ``logits`` itself, now holding
        ``exp(logits)`` normalized to sum 1 over components, and the sum of the
        per-observation log normalizers ``ln sum exp(logits)``.
    """
    shift = logits.max(axis=0, keepdims=True)
    # a finite sum means every maximum is finite, so every total is at least
    # 1 and its log needs no guard; otherwise the slow path sorts it out
    finite = math.isfinite(shift.sum())
    if not finite:
        if np.isnan(shift).any():
            raise InvalidInputError("NaN in mixture logits")
        shift[~np.isfinite(shift)] = 0.0
    logits -= shift
    np.exp(logits, out=logits)
    total = logits.sum(axis=0, keepdims=True)
    logits /= total
    if finite:
        np.log(total, out=total)
    else:  # a column of -inf logits sums to 0
        with np.errstate(divide="ignore"):
            np.log(total, out=total)
    total += shift
    return logits, float(total.sum())


def update_pi(sums: np.ndarray, count: int) -> np.ndarray:
    """Prior update: the mean ``sums / count`` of responsibilities, floored
    at ``PRIOR_FLOOR`` and normalized over components (axis 0): from the
    (K, T) sum over F frequencies, the frequency-tied prior of the joint EM;
    from the (K,) sum over T frames, the VMFMM's shared weights."""
    pi = sums / count
    np.maximum(pi, PRIOR_FLOOR, out=pi)
    pi /= pi.sum(axis=0, keepdims=True)
    return pi


def min_cost_assignment(cost):
    """Rectangular linear sum assignment: the pairing of least total cost.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant; the
    rectangular form of Crouse, 2016): each row of the shorter side is added
    by one Dijkstra search over reduced costs, one NumPy pass per column it
    settles, then the potentials and the matching are updated along the path.
    Every row of the shorter side is matched, each to a distinct column.

    Args:
        cost: (N, M) finite cost matrix.

    Returns:
        ``(rows, cols)``: integer arrays of ``min(N, M)`` matched pairs, with
        ``rows`` ascending.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise InvalidInputError("cost must be a matrix")
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("cost entries must be finite")
    tall = cost.shape[0] > cost.shape[1]
    if tall:
        cost = cost.T
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    col4row = np.full(n, -1)
    row4col = np.full(m, -1)
    for start in range(n):
        dist = np.full(m, np.inf)
        path = np.full(m, -1)
        done_rows = np.zeros(n, dtype=bool)
        done_cols = np.zeros(m, dtype=bool)
        i, reach, sink = start, 0.0, -1
        while sink < 0:
            done_rows[i] = True
            reduced = reach + cost[i] - u[i] - v
            closer = ~done_cols & (reduced < dist)
            path[closer] = i
            dist[closer] = reduced[closer]
            j = int(np.argmin(np.where(done_cols, np.inf, dist)))
            reach = dist[j]
            done_cols[j] = True
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[start] += reach
        others = done_rows.copy()
        others[start] = False
        u[others] += reach - dist[col4row[others]]
        v[done_cols] -= reach - dist[done_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    if tall:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n), col4row
