"""Simulators for cointegrated VECM systems, factor panels and series of
known integration order.

Each is fully deterministic given a seed: innovations are drawn in a
single block from one generator, so replaying a seed reproduces the
panel bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._numeric import ar1_recursion
from .errors import NumericalError, ParameterError
from .panel import from_values
from .rng import as_generator, substream

__all__ = [
    "VecmParams",
    "FactorDgpParams",
    "I1Diagnostics",
    "check_i1_conditions",
    "simulate_vecm",
    "simulate_factor_dgp",
    "random_vecm_params",
    "simulate_mixed_orders",
]


@dataclass(frozen=True)
class VecmParams:
    """Parameters of an N-dimensional VECM data-generating process.

    The recursion in the stochastic part ``zeta`` is

        d zeta_t = a b' zeta_{t-1} + sum_j phi[j] d zeta_{t-j} + eps_t,

    with ``eps_t ~ N(0, sigma)`` and the observed series
    ``z_t = mu + tau * t + zeta_t``.

    Parameters
    ----------
    a, b : ndarray, shape (N, r)
        Adjustment loadings and cointegrating vectors, both of full
        column rank ``r`` (``r = 0`` means no error correction).
    phi : tuple of ndarray
        ``p`` short-run coefficient matrices, each ``N x N``.
    mu, tau : ndarray, shape (N,)
        Intercept and linear-trend coefficients.
    sigma : ndarray, shape (N, N)
        Symmetric positive-definite innovation covariance.
    """

    a: np.ndarray
    b: np.ndarray
    phi: Tuple[np.ndarray, ...] = ()
    mu: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape:
            raise ParameterError(f"a and b must share a shape, got {a.shape} vs {b.shape}")
        n, r = a.shape
        if r > n:
            raise ParameterError(f"rank {r} exceeds dimension {n}")
        if r > 0:
            if np.linalg.matrix_rank(a) != r or np.linalg.matrix_rank(b) != r:
                raise ParameterError("a and b must have full column rank")
        phi = tuple(np.asarray(m, dtype=float) for m in self.phi)
        for m in phi:
            if m.shape != (n, n):
                raise ParameterError(f"each phi matrix must be {n}x{n}, got {m.shape}")
        mu = np.zeros(n) if self.mu is None else np.asarray(self.mu, dtype=float)
        tau = np.zeros(n) if self.tau is None else np.asarray(self.tau, dtype=float)
        if mu.shape != (n,) or tau.shape != (n,):
            raise ParameterError("mu and tau must be length-N vectors")
        sigma = np.eye(n) if self.sigma is None else np.asarray(self.sigma, dtype=float)
        if sigma.shape != (n, n) or not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ParameterError("sigma must be a symmetric N x N matrix")
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ParameterError("sigma must be positive definite") from None
        for name, val in (("a", a), ("b", b), ("mu", mu), ("tau", tau), ("sigma", sigma)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def r(self) -> int:
        return self.a.shape[1]

    @property
    def p(self) -> int:
        return len(self.phi)


#: a companion eigenvalue within this distance of one is a unit root, and
#: the others must lie this far inside the unit circle
_UNIT_ROOT_TOL = 1e-6


@dataclass(frozen=True)
class I1Diagnostics:
    """Root diagnostics of the VECM characteristic polynomial."""

    n_unit_roots: int             # roots with |lambda - 1| < 1e-6
    expected_unit_roots: int      # N - r
    max_other_modulus: float      # largest modulus among the remaining roots
    is_i1: bool


def _companion(params: VecmParams) -> np.ndarray:
    """Companion matrix of the level-VAR implied by the VECM coefficients.

    Rewriting the error-correction form as a VAR(p + 1) in levels gives
    ``A_1 = I + Pi + Phi_1``, ``A_j = Phi_j - Phi_{j-1}`` for interior
    lags and ``A_{p+1} = -Phi_p``.
    """
    n, p = params.n, params.p
    pi = params.a @ params.b.T if params.r else np.zeros((n, n))
    mats = [np.eye(n) + pi + (params.phi[0] if p >= 1 else 0.0)]
    for j in range(2, p + 1):
        mats.append(params.phi[j - 1] - params.phi[j - 2])
    if p >= 1:
        mats.append(-params.phi[p - 1])
    dim = n * (p + 1)
    comp = np.zeros((dim, dim))
    for j, m in enumerate(mats):
        comp[:n, j * n:(j + 1) * n] = m
    if p >= 1:
        comp[n:, :-n] = np.eye(n * p)
    return comp


def check_i1_conditions(params: VecmParams) -> I1Diagnostics:
    """Verify that the parameters generate an I(1) system with N - r trends.

    The characteristic polynomial must have exactly ``N - r`` unit roots
    with all remaining roots outside the unit circle; equivalently the
    companion matrix has ``N - r`` eigenvalues at one and the rest
    strictly inside the unit circle, both to a tolerance of 1e-6.
    """
    comp = _companion(params)
    eig = np.linalg.eigvals(comp)
    unit = np.abs(eig - 1.0) < _UNIT_ROOT_TOL
    others = np.abs(eig[~unit])
    max_other = float(others.max()) if others.size else 0.0
    n_unit = int(unit.sum())
    expected = params.n - params.r
    ok = n_unit == expected and max_other < 1.0 - _UNIT_ROOT_TOL
    return I1Diagnostics(n_unit, expected, max_other, ok)


def simulate_vecm(params: VecmParams, T: int, burn_in: int = 200, seed=0,
                  return_innovations: bool = False):
    """Simulate ``T`` observations from a VECM process whose parameters
    pass :func:`check_i1_conditions`, started at zero ``burn_in`` steps
    before the sample, with monthly dates from 2000-01.

    Parameters
    ----------
    return_innovations : bool
        Also return the sample-period innovation array.
    """
    if T < 2:
        raise ParameterError("T must be at least 2")
    if burn_in < 0:
        raise ParameterError("burn_in must be non-negative")
    diag = check_i1_conditions(params)
    if not diag.is_i1:
        raise ParameterError(
            f"VECM parameters violate the I(1) conditions: found "
            f"{diag.n_unit_roots} unit roots (expected {diag.expected_unit_roots}), "
            f"largest non-unit companion modulus {diag.max_other_modulus:.6f}")
    n, r, p = params.n, params.r, params.p
    rng = as_generator(seed)
    total = burn_in + T
    chol = np.linalg.cholesky(params.sigma)
    eps = rng.standard_normal((total, n)) @ chol.T
    pi = params.a @ params.b.T if r else np.zeros((n, n))
    z = np.zeros(n)
    dz_hist = [np.zeros(n) for _ in range(p)]
    sample = np.empty((T, n))
    for t in range(total):
        dz = pi @ z + eps[t]
        for j in range(p):
            dz += params.phi[j] @ dz_hist[j]
        z = z + dz
        if p:
            dz_hist = [dz] + dz_hist[:-1]
        if t >= burn_in:
            sample[t - burn_in] = z
    trend = np.arange(1.0, T + 1.0)[:, None]
    obs = sample + params.mu[None, :] + params.tau[None, :] * trend
    panel = from_values(obs)
    if return_innovations:
        return panel, eps[burn_in:]
    return panel


@dataclass(frozen=True)
class FactorDgpParams:
    """Approximate factor model ``z = f @ lam' + u``.

    ``factor_orders`` and ``idio_orders`` flag each factor / idiosyncratic
    component as I(0) or I(1).  I(1) components are random walks started
    at zero; I(0) components are AR(1) processes with the given
    coefficients, initialized from their stationary distribution via
    burn-in.
    """

    lam: np.ndarray                       # N x k loadings
    factor_orders: Tuple[int, ...]        # k flags in {0, 1}
    idio_orders: Tuple[int, ...]          # N flags in {0, 1}
    idio_ar: Optional[np.ndarray] = None  # AR(1) coefficients for I(0) idio
    factor_ar: Optional[np.ndarray] = None
    idio_scale: Optional[np.ndarray] = None

    def __post_init__(self):
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        n, k = lam.shape
        fo = tuple(int(v) for v in self.factor_orders)
        io = tuple(int(v) for v in self.idio_orders)
        if len(fo) != k or not all(v in (0, 1) for v in fo):
            raise ParameterError(f"factor_orders must be {k} flags in {{0, 1}}")
        if len(io) != n or not all(v in (0, 1) for v in io):
            raise ParameterError(f"idio_orders must be {n} flags in {{0, 1}}")

        def vec(x, default, length, name):
            v = np.full(length, default) if x is None else np.asarray(x, dtype=float)
            if v.shape != (length,):
                raise ParameterError(f"{name} must be a length-{length} vector")
            return v

        idio_ar = vec(self.idio_ar, 0.0, n, "idio_ar")
        factor_ar = vec(self.factor_ar, 0.0, k, "factor_ar")
        for flag, coef in zip(io, idio_ar):
            if flag == 0 and abs(coef) >= 1.0:
                raise ParameterError("idio AR coefficients must lie inside the unit circle")
        for flag, coef in zip(fo, factor_ar):
            if flag == 0 and abs(coef) >= 1.0:
                raise ParameterError("factor AR coefficients must lie inside the unit circle")
        idio_scale = vec(self.idio_scale, 1.0, n, "idio_scale")
        if np.any(idio_scale < 0):
            raise ParameterError("idio_scale must be non-negative")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "factor_orders", fo)
        object.__setattr__(self, "idio_orders", io)
        object.__setattr__(self, "idio_ar", idio_ar)
        object.__setattr__(self, "factor_ar", factor_ar)
        object.__setattr__(self, "idio_scale", idio_scale)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @property
    def k(self) -> int:
        return self.lam.shape[1]


def _component_paths(orders, ar, scales, T, burn_in, rng) -> np.ndarray:
    """Columns of AR(1)/random-walk paths with per-column scale."""
    m = len(orders)
    eps = rng.standard_normal((burn_in + T, m)) * np.asarray(scales)[None, :]
    walk = np.asarray(orders) == 1
    out = np.empty((T, m))
    out[:, walk] = np.cumsum(eps[burn_in:, walk], axis=0)
    out[:, ~walk] = ar1_recursion(eps[:, ~walk], np.asarray(ar)[~walk])[burn_in:]
    return out


def simulate_factor_dgp(params: FactorDgpParams, T: int, burn_in: int = 200,
                        seed=0):
    """Simulate a factor panel, with monthly dates from 2000-01; returns
    ``(panel, factors, idiosyncratic)``.

    A series is I(0) only when both its idiosyncratic component and its
    loaded factor combination are I(0).
    """
    if T < 2:
        raise ParameterError("T must be at least 2")
    rng = as_generator(seed)
    f = _component_paths(params.factor_orders, params.factor_ar,
                         np.ones(params.k), T, burn_in, rng)
    u = _component_paths(params.idio_orders, params.idio_ar,
                         params.idio_scale, T, burn_in, rng)
    return from_values(f @ params.lam.T + u), f, u


# -- canned generators used by the CLI and the test battery ---------------


def random_vecm_params(n: int, r: int, p: int = 0, seed=0,
                       adjust_range: Tuple[float, float] = (0.2, 0.5),
                       phi_scale: float = 0.2) -> VecmParams:
    """Draw admissible VECM parameters with guaranteed I(1) structure.

    Cointegrating vectors are a random orthonormal frame; adjustment is
    ``a = -b @ diag(speeds)`` with speeds in ``adjust_range``, which keeps
    the error-correction directions stationary, and the errors have unit
    covariance.  Short-run matrices start at ``phi_scale`` and shrink by
    0.7 until the characteristic-root conditions hold, 200 draws at most.
    """
    if n < 1:
        raise ParameterError(f"need at least one series, got n={n}")
    if not 0 <= r <= n:
        raise ParameterError(f"rank must be between 0 and {n}")
    rng = substream(seed, "vecm-params", n, r, p)
    q, _ = np.linalg.qr(rng.standard_normal((n, max(r, 1))))
    b = q[:, :r]
    speeds = rng.uniform(*adjust_range, size=r)
    a = -b * speeds[None, :]
    scale = phi_scale
    for _ in range(200):
        phi = tuple(rng.standard_normal((n, n)) * scale / n ** 0.5 for _ in range(p))
        params = VecmParams(a=a.reshape(n, r), b=b.reshape(n, r), phi=phi)
        if check_i1_conditions(params).is_i1:
            return params
        scale *= 0.7
    raise NumericalError("failed to draw admissible VECM parameters")


def simulate_mixed_orders(n0: int, n1: int, n2: int, T: int, seed=0):
    """Independent series with known orders: ``n0`` AR(1) with coefficient
    0.5, ``n1`` random walks, ``n2`` double-integrated walks, all driven by
    standard normal shocks, over ``T >= 2`` periods from 2000-01.  Returns
    ``(panel, orders)``."""
    for name, count in (("n0", n0), ("n1", n1), ("n2", n2)):
        if count < 0:
            raise ParameterError(f"{name} must be nonnegative, got {count}")
    n = n0 + n1 + n2
    if n < 1:
        raise ParameterError("need at least one series")
    if T < 2:
        raise ParameterError(f"T must be at least 2, got {T}")
    rng = as_generator(seed)
    burn = 100
    eps = rng.standard_normal((burn + T, n))
    orders = np.array([0] * n0 + [1] * n1 + [2] * n2)
    vals = np.cumsum(eps[burn:], axis=0)
    vals[:, orders == 2] = np.cumsum(vals[:, orders == 2], axis=0)
    vals[:, orders == 0] = ar1_recursion(eps[:, orders == 0], 0.5)[burn:]
    return from_values(vals), orders
