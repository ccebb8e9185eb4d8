"""Bounded nonlinear least squares and the PCHIP coefficients, on numpy alone.

``curve_fit`` is scipy 1.17.1's ``curve_fit`` (method "trf", finite bounds,
no sigma or a 1-D sigma) over ``least_squares`` with its defaults (x_scale 1,
linear loss, exact trust-region solver, ftol = xtol = gtol = 1e-8) and
'2-point' finite differences: the trust-region reflective method of M. A.
Branch, T. F. Coleman and Y. Li (SIAM J. Sci. Comput. 21, 1, 1999).  It
returns popt alone: ``readout`` reads one fitted frequency, so the
covariance and the final cost, residuals and Jacobian are not kept.
``pchip_coefficients`` is the ``c`` of scipy's ``PchipInterpolator``, its
slopes those of F. N. Fritsch and J. Butland (SIAM J. Sci. Stat. Comput. 5,
300, 1984); ``readout`` sums the cubic itself.  Both are transcribed
statement for statement, so they give scipy's popt and ``c`` bit for bit; the
branches ``readout`` cannot reach (other methods, losses and solvers,
callbacks, sparse Jacobians, evaluation, input checks its callers already
make) are left out, and a factor that is exactly 1 under these options is
dropped.  scipy's SVD is LAPACK's gesdd, as numpy's is; scipy
returns U and V^T in Fortran order, and the products below take a different
BLAS path (and round differently) unless they are given that order too.
"""

from __future__ import annotations

from math import copysign

import numpy as np
from numpy.linalg import norm, svd

EPS = np.finfo(float).eps
# scipy's defaults, which no caller changes: least_squares' tolerances and
# the trust-region subproblem's
FTOL = XTOL = GTOL = 1e-8
SUBPROBLEM_RTOL, SUBPROBLEM_MAX_ITER = 0.01, 10


# ---------------------------------------------------------------------------
# curve_fit (scipy/optimize/_minpack_py.py)
# ---------------------------------------------------------------------------

def curve_fit(f, xdata, ydata, p0, sigma=None, *, bounds, max_nfev):
    """popt of ``f(xdata, *p)`` fitted to ``ydata`` within ``bounds``, a
    (lower, upper) pair of sequences with one entry per parameter, not all
    infinite (scipy runs another method without bounds); ``RuntimeError``
    when the fit stops at ``max_nfev`` evaluations."""
    p0 = np.atleast_1d(p0)
    ydata = np.asarray(ydata, float)
    xdata = np.asarray(xdata, float)
    if sigma is None:
        def func(params):
            return f(xdata, *params) - ydata
    else:
        transform = 1.0 / np.asarray(sigma)

        def func(params):
            return transform * (f(xdata, *params) - ydata)
    x, status = _least_squares(func, p0, bounds, max_nfev)
    if status <= 0:
        raise RuntimeError("Optimal parameters not found: The maximum number of "
                           "function evaluations is exceeded.")
    return x


# ---------------------------------------------------------------------------
# least_squares (scipy/optimize/_lsq/least_squares.py) and '2-point'
# approx_derivative (scipy/optimize/_numdiff.py)
# ---------------------------------------------------------------------------

def _least_squares(fun, x0, bounds, max_nfev):
    """(x, status) of the bounded TRF solve."""
    x0 = np.atleast_1d(x0).astype(float)
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    x0 = _make_strictly_feasible(x0, lb, ub)

    def jac(x, f):
        return _jacobian(fun, x, f, lb, ub)

    f0 = fun(x0)
    return _trf_bounds(fun, jac, x0, f0, jac(x0, f0), lb, ub, max_nfev)


def _jacobian(fun, x0, f0, lb, ub):
    """Forward (or, at an upper bound, backward) differences, one column per
    variable, returned as the transpose of a C-ordered (n, m) array."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    h = EPS**0.5 * sign_x0 * np.maximum(1.0, np.abs(x0))
    # _adjust_scheme_to_bounds, '1-sided', one step
    lower_dist = x0 - lb
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (fun(x1) - f0) / ((x0[i] + h[i]) - x0[i])
    return J_transposed.T


# ---------------------------------------------------------------------------
# trf_bounds (scipy/optimize/_lsq/trf.py)
# ---------------------------------------------------------------------------

def _trf_bounds(fun, jac, x0, f0, J0, lb, ub, max_nfev):
    x = x0.copy()
    f = f0
    nfev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, dv = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # "Levenberg-Marquardt" parameter
    termination_status = None
    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < GTOL:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break
        # the Coleman-Li scaling, in "hat" space
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = svd(J_augmented, full_matrices=False)
        U = np.asfortranarray(U)
        V = np.asfortranarray(V).T
        uf = U.T.dot(f_augmented)
        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)
            step_norm = norm(step)
            termination_status = _check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio)
            if termination_status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = jac(x, f)
            g = J.T.dot(f)
    if termination_status is None:
        termination_status = 0
    return x, termination_status


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step, its reflection off the first bound
    it hits, and the anti-gradient step, each kept strictly feasible."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)
        return p, p_h, -p_value
    p_stride, hits = _step_size_to_bound(x, p, lb, ub)
    # the reflected direction
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected direction crosses the feasible region's or the trust
    # region's boundary first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1
    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, s0=p_h, diag=diag_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    # make p_h strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag=diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag=diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


# ---------------------------------------------------------------------------
# Helpers of scipy/optimize/_lsq/common.py
# ---------------------------------------------------------------------------

def _intersect_trust_region(x, s, Delta):
    """Negative and positive roots t of ||x + s t|| = Delta."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # root of a quarter of the discriminant
    # avoiding loss of significance ("Numerical Recipes")
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _solve_lsq_trust_region(m, uf, s, V, Delta, initial_alpha):
    """(p, alpha) of the trust-region subproblem, by J. J. More's iteration
    (Lecture Notes in Mathematics 630, 105, 1977) on one SVD: uf = U^T f,
    s the singular values, V the transpose of V^T."""
    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    # full rank: try the Gauss-Newton step (fit_rabi fits 4 parameters to at
    # least 10 points, so there are never fewer residuals m than parameters)
    full_rank = s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha
    for _ in range(SUBPROBLEM_MAX_ITER):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < SUBPROBLEM_RTOL * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    # keep p on the trust region's boundary
    p *= Delta / norm(p)
    return p, alpha


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the quadratic along the line s0 + s t."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is not None:
        u = J.dot(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        b += np.dot(s0 * diag, s)
        c += 0.5 * np.dot(s0 * diag, s0)
        return a, b, c
    else:
        return a, b


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    l = np.dot(s, g)
    return 0.5 * q + l


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    """(t, hits): the step t >= 0 along s that reaches the first bound, and
    which variables reach it (-1 lower, 1 upper)."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _make_strictly_feasible(x, lb, ub, rstep=1e-10):
    """x moved at least a relative ``rstep`` inside the bounds, or to the next
    float inside them when ``rstep`` is 0."""
    x_new = x.copy()
    # find_active_constraints
    active = np.zeros_like(x, dtype=int)
    if rstep == 0:
        active[x <= lb] = -1
        active[x >= ub] = 1
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower_threshold = rstep * np.maximum(1, np.abs(lb))
        upper_threshold = rstep * np.maximum(1, np.abs(ub))
        active[np.isfinite(lb)
               & (lower_dist <= np.minimum(upper_dist, lower_threshold))] = -1
        active[np.isfinite(ub)
               & (upper_dist <= np.minimum(lower_dist, upper_threshold))] = 1
    lower_mask = np.equal(active, -1)
    upper_mask = np.equal(active, 1)
    if rstep == 0:
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        x_new[lower_mask] = lb[lower_mask] + rstep * np.maximum(1, np.abs(lb[lower_mask]))
        x_new[upper_mask] = ub[upper_mask] - rstep * np.maximum(1, np.abs(ub[upper_mask]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector v and its derivative dv."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    ftol_satisfied = dF < FTOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < XTOL * (XTOL + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None


# ---------------------------------------------------------------------------
# PchipInterpolator's coefficients (scipy/interpolate/_cubic.py)
# ---------------------------------------------------------------------------

def pchip_coefficients(x, y) -> np.ndarray:
    """scipy's ``PchipInterpolator(x, y).c`` for x strictly increasing: the
    piecewise cubic Hermite interpolant with shape-preserving slopes, as
    (4, len(x) - 1) coefficients per interval, highest power first, in
    powers of the distance from the interval's left node."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.diff(x)
    dydx = _find_derivatives(x, y)
    # CubicHermiteSpline
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def _edge_case(h0, h1, m0, m1):
    # one-sided three-point estimate of the end slope
    d = ((2*h0 + h1)*m0 - h0*m1) / (h0 + h1)
    # try to preserve shape
    if np.sign(d) != np.sign(m0):
        return 0.
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.*np.abs(m0):
        return 3.*m0
    return d


def _find_derivatives(x, y):
    # the slope at x_k is 0 where the neighbouring secants m_{k-1}, m_k
    # differ in sign or either is 0, else their weighted harmonic mean
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    if y.shape[0] == 2:
        # two points: linear interpolation
        return np.array([mk[0], mk[0]])
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2*hk[1:] + hk[:-1]
    w2 = hk[1:] + 2*hk[:-1]
    # the division by zero happens only where ``condition`` holds
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1/mk[:-1] + w2/mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    # end slopes as in C. Moler, Numerical Computing with MATLAB, ch. 3.6
    dk[0] = _edge_case(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _edge_case(hk[-1], hk[-2], mk[-1], mk[-2])
    return dk
