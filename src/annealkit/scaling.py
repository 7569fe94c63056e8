"""Two-power-law fits, master-curve collapse, and critical-exponent math.

The competing-mechanism ansatz is

    f(v) = a_L v^alpha + b_L v^(-beta),

with all four parameters positive: the first term is quasi-adiabatic
defect production (falls as v decreases), the second the noise
contribution (grows as v decreases).  The interior minimum is

    v_min = (beta b_L / (alpha a_L))^(1/(alpha+beta)),

and rescaling u = v/v_min, g = f/f_min collapses every dataset onto the
parameter-free master curve g(u) = (beta u^alpha + alpha u^(-beta)) /
(alpha + beta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, ParameterError

_LOG_BOUND = 46.0  # |ln param| bound; keeps the iterates finite


@dataclass(frozen=True)
class KzmInput:
    """Dimensions and exponents entering the scaling prediction."""

    d: float
    z: float
    nu: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.d <= 0 or self.z <= 0 or self.nu <= 0:
            raise ParameterError("d, z, nu must be positive")
        if self.kappa < 0:
            raise ParameterError("kappa must be >= 0")


def kzm_exponent(inp: KzmInput) -> float:
    """Velocity exponent (d + kappa/nu) / (z + 1/nu) for extensive defects."""
    return (inp.d + inp.kappa / inp.nu) / (inp.z + 1.0 / inp.nu)


def lzm_exponent(z: float) -> float:
    """Minimum-gap-controlled prediction 1/(2z)."""
    if z <= 0:
        raise ParameterError("z must be positive")
    return 1.0 / (2.0 * z)


def master_curve(u, alpha: float, beta: float):
    """Rescaled ansatz g(u); g(1) = 1 identically."""
    u = np.asarray(u, dtype=float)
    return (beta * u ** alpha + alpha * u ** (-beta)) / (alpha + beta)


def rescale(v, f, v_min: float, f_min: float):
    """Map raw points onto (u, g) coordinates of the master curve."""
    if v_min <= 0 or f_min <= 0:
        raise ParameterError("v_min and f_min must be positive")
    v = np.asarray(v, dtype=float)
    f = np.asarray(f, dtype=float)
    return v / v_min, f / f_min


@dataclass
class PowerLawFit:
    """Shared exponents with per-size prefactors and their covariance.

    Parameter order in `covariance` (linear space): a for each size,
    b for each size, then alpha, beta.
    """

    sizes: tuple
    a: np.ndarray
    b: np.ndarray
    alpha: float
    beta: float
    covariance: np.ndarray
    chi_square: float
    dof: int
    degenerate: bool = False
    message: str = ""
    n_points: int = 0

    def _size_index(self, size) -> int:
        if size is None and len(self.sizes) == 1:
            return 0
        try:
            return self.sizes.index(size)
        except ValueError:
            raise ParameterError(f"size {size} not in fit (have {self.sizes})")

    def params_for(self, size=None):
        """(a, b, alpha, beta) for one dataset."""
        j = self._size_index(size)
        return self.a[j], self.b[j], self.alpha, self.beta

    def sub_covariance(self, size=None) -> np.ndarray:
        """4x4 covariance of (a, b, alpha, beta) for one dataset."""
        j = self._size_index(size)
        k = len(self.sizes)
        idx = [j, k + j, 2 * k, 2 * k + 1]
        return self.covariance[np.ix_(idx, idx)]

    def errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def a_error(self, size=None) -> float:
        j = self._size_index(size)
        return self.errors()[j]

    def b_error(self, size=None) -> float:
        j = self._size_index(size)
        return self.errors()[len(self.sizes) + j]

    @property
    def alpha_error(self) -> float:
        return self.errors()[2 * len(self.sizes)]

    @property
    def beta_error(self) -> float:
        return self.errors()[2 * len(self.sizes) + 1]

    def evaluate(self, v, size=None):
        a, b, alpha, beta = self.params_for(size)
        v = np.asarray(v, dtype=float)
        return a * v ** alpha + b * v ** (-beta)


def _damped_linearization(residuals, jacobian, theta0, max_iterations=2000,
                          xtol=1e-12):
    """Levenberg-Marquardt over the log-parameters.

    Damped normal-equation steps; damping shrinks on accepted steps and
    grows on rejected ones.  Terminates when the relative parameter
    change falls below xtol, so the iterates (and the optimum) are
    invariant under a uniform rescaling of every sigma.
    """
    theta = np.clip(theta0, -_LOG_BOUND, _LOG_BOUND)
    r = residuals(theta)
    cost = float(r @ r)
    damping = 1e-3
    for _ in range(max_iterations):
        J = jacobian(theta)
        g = J.T @ r
        JTJ = J.T @ J
        scale = np.diag(JTJ).copy()
        scale[scale <= 0] = 1.0
        accepted = False
        for _ in range(60):
            M = JTJ + damping * np.diag(scale)
            try:
                step = np.linalg.solve(M, -g)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = np.clip(theta + step, -_LOG_BOUND, _LOG_BOUND)
            r_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost:
                rel_change = np.max(np.abs(trial - theta)
                                    / np.maximum(np.abs(theta), 1.0))
                theta, r, cost = trial, r_trial, cost_trial
                damping = max(damping * 0.3, 1e-14)
                accepted = True
                if rel_change < xtol:
                    return theta
                break
            damping *= 4.0
        if not accepted:
            # no downhill step found: converged to working precision
            return theta
    raise FitConvergenceError("power-law fit hit the iteration limit",
                              best=theta)


def _initial_guess(datasets):
    """Branch-slope heuristics: exponents from the three outermost points
    per side, prefactors from matching the endpoints."""
    alphas, betas = [], []
    for v, f, _ in datasets:
        order = np.argsort(v)
        v, f = v[order], f[order]
        if len(v) >= 3:
            hi = np.polyfit(np.log(v[-3:]), np.log(f[-3:]), 1)[0]
            lo = np.polyfit(np.log(v[:3]), np.log(f[:3]), 1)[0]
            if hi > 0:
                alphas.append(hi)
            if lo < 0:
                betas.append(-lo)
    alpha = float(np.clip(np.mean(alphas), 0.05, 5.0)) if alphas else 0.5
    beta = float(np.clip(np.mean(betas), 0.05, 5.0)) if betas else 1.0
    a0, b0 = [], []
    for v, f, _ in datasets:
        order = np.argsort(v)
        v, f = v[order], f[order]
        a0.append(max(f[-1] / v[-1] ** alpha, 1e-12))
        b0.append(max(f[0] * v[0] ** beta, 1e-12))
    return np.array(a0), np.array(b0), alpha, beta


def _fit(datasets, sizes, max_iterations=2000):
    for v, f, sig in datasets:
        if len(v) < 5:
            raise ParameterError("each dataset needs >= 5 points")
        if np.any(sig <= 0):
            raise ParameterError("point uncertainties must be positive")
        if np.any(v <= 0):
            raise ParameterError("velocities must be positive")
    k = len(datasets)
    a0, b0, alpha0, beta0 = _initial_guess(datasets)
    theta0 = np.log(np.concatenate([a0, b0, [alpha0, beta0]]))
    theta0 = np.clip(theta0, -_LOG_BOUND + 1, _LOG_BOUND - 1)

    v_all = np.concatenate([d[0] for d in datasets])
    f_all = np.concatenate([d[1] for d in datasets])
    s_all = np.concatenate([d[2] for d in datasets])
    which = np.concatenate([np.full(len(d[0]), j) for j, d in enumerate(datasets)])
    logv = np.log(v_all)

    def unpack(theta):
        a = np.exp(theta[:k])
        b = np.exp(theta[k:2 * k])
        alpha = np.exp(theta[2 * k])
        beta = np.exp(theta[2 * k + 1])
        return a, b, alpha, beta

    def residuals(theta):
        a, b, alpha, beta = unpack(theta)
        model = a[which] * v_all ** alpha + b[which] * v_all ** (-beta)
        return (model - f_all) / s_all

    def jacobian(theta):
        a, b, alpha, beta = unpack(theta)
        rise = a[which] * v_all ** alpha
        fall = b[which] * v_all ** (-beta)
        J = np.zeros((len(v_all), 2 * k + 2))
        for j in range(k):
            m = which == j
            J[m, j] = rise[m]
            J[m, k + j] = fall[m]
        J[:, 2 * k] = rise * logv * alpha
        J[:, 2 * k + 1] = -fall * logv * beta
        return J / s_all[:, None]

    theta = _damped_linearization(residuals, jacobian, theta0,
                                  max_iterations=max_iterations)
    a, b, alpha, beta = unpack(theta)

    J = jacobian(theta)
    JTJ = J.T @ J
    try:
        cov_log = np.linalg.inv(JTJ)
    except np.linalg.LinAlgError:
        cov_log = np.linalg.pinv(JTJ)
    scale = np.concatenate([a, b, [alpha, beta]])
    cov = cov_log * np.outer(scale, scale)

    chi2 = float(np.sum(residuals(theta) ** 2))
    dof = max(len(v_all) - (2 * k + 2), 0)

    fit = PowerLawFit(sizes=tuple(sizes), a=a, b=b, alpha=float(alpha),
                      beta=float(beta), covariance=cov, chi_square=chi2,
                      dof=dof, n_points=len(v_all))
    _flag_degenerate(fit, datasets)
    return fit


def _flag_degenerate(fit: PowerLawFit, datasets):
    """Warn when the fitted minimum is unsupported by the sampled window."""
    notes = []
    for j, (v, _, _) in enumerate(datasets):
        a, b = fit.a[j], fit.b[j]
        vm = optimum_location(a, b, fit.alpha, fit.beta)
        if not (v.min() <= vm <= v.max()):
            notes.append(f"size {fit.sizes[j]}: fitted minimum v={vm:.3g} outside "
                         f"sampled window [{v.min():.3g}, {v.max():.3g}]")
    at_bound = np.abs(np.log(np.concatenate([fit.a, fit.b, [fit.alpha, fit.beta]]))
                      ) > _LOG_BOUND - 1
    if at_bound.any():
        notes.append("parameter(s) pinned at positivity bound; branch unidentifiable")
    if notes:
        fit.degenerate = True
        fit.message = "; ".join(notes)
        warnings.warn("degenerate power-law fit: " + fit.message, stacklevel=3)


def fit_single(v, f, sigma, size=None, max_iterations=2000) -> PowerLawFit:
    """Weighted fit of one dataset; Levenberg-Marquardt over log-parameters."""
    v = np.asarray(v, float)
    f = np.asarray(f, float)
    sigma = np.asarray(sigma, float)
    return _fit([(v, f, sigma)], [size if size is not None else 0],
                max_iterations=max_iterations)


def fit_global(datasets, max_iterations=4000) -> PowerLawFit:
    """Shared (alpha, beta) across sizes, per-size prefactors.

    datasets: mapping size -> (v, f, sigma) arrays.
    """
    if len(datasets) < 1:
        raise ParameterError("need at least one dataset")
    sizes = sorted(datasets)
    packed = [tuple(np.asarray(x, float) for x in datasets[s]) for s in sizes]
    return _fit(packed, sizes, max_iterations=max_iterations)


def optimum_location(a: float, b: float, alpha: float, beta: float) -> float:
    return (beta * b / (alpha * a)) ** (1.0 / (alpha + beta))


@dataclass
class Optimum:
    v_min: float
    f_min: float
    v_min_error: float = np.nan
    f_min_error: float = np.nan


def optimum(fit: PowerLawFit, size=None) -> Optimum:
    """Closed-form minimum of the fitted curve with first-order errors."""
    a, b, alpha, beta = fit.params_for(size)

    def both(params):
        aa, bb, al, be = params
        vm = optimum_location(aa, bb, al, be)
        return np.array([vm, aa * vm ** al + bb * vm ** (-be)])

    p = np.array([a, b, alpha, beta])
    vals = both(p)
    # first-order propagation through the closed forms
    grad = np.zeros((2, 4))
    for i in range(4):
        h = 1e-7 * max(abs(p[i]), 1e-12)
        dp = p.copy(); dp[i] += h
        dm = p.copy(); dm[i] -= h
        grad[:, i] = (both(dp) - both(dm)) / (2 * h)
    cov4 = fit.sub_covariance(size)
    var = np.einsum("ij,jk,ik->i", grad, cov4, grad)
    err = np.sqrt(np.clip(var, 0.0, None))
    return Optimum(v_min=float(vals[0]), f_min=float(vals[1]),
                   v_min_error=float(err[0]), f_min_error=float(err[1]))


def prefactor_scaling(sizes, values, errors=None):
    """Weighted log-log regression of prefactor vs size.

    Returns (slope, standard error).  With uncertainties supplied, the
    slope error comes from the weighted normal equations; otherwise from
    the residual scatter.
    """
    sizes = np.asarray(sizes, float)
    values = np.asarray(values, float)
    if len(sizes) < 3:
        raise ParameterError("need >= 3 sizes")
    if np.any(values <= 0) or np.any(sizes <= 0):
        raise ParameterError("sizes and values must be positive")
    x = np.log(sizes)
    y = np.log(values)
    if errors is None:
        coef, cov = np.polyfit(x, y, 1, cov=True)
    else:
        errors = np.asarray(errors, float)
        if np.any(errors <= 0):
            raise ParameterError("errors must be positive")
        # polyfit weights are 1/sigma, and sigma(log v) = err/v
        coef, cov = np.polyfit(x, y, 1, w=values / errors, cov="unscaled")
    return float(coef[0]), float(np.sqrt(cov[0, 0]))
