"""Independent reference implementations used to cross-check the solver.

Everything here trades speed for transparency: naive summation loops,
dense matrix assembly, O(N^4) transforms and convolutions, and dense
damped-Newton solves of the fully assembled step systems.  None of it is
used in production paths; the matrix-free solver is validated against
these oracles at small grid sizes (N <= 16).  The grid-level helpers that
only references need live here too: the zero-mean projection, the apply
of a half-spectrum symbol on the grid, and a sampled kernel's table of
vertex values.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .energetics import PotentialSpec, potential_d1, potential_d2, potential_value
from .grid import Field, GridGeometry, irfft2, mean
from .kernels import SampledKernel

MAX_DENSE_CELLS = 16


def _guard(n: int):
    if n > MAX_DENSE_CELLS:
        raise ValueError(f"dense oracle limited to N <= {MAX_DENSE_CELLS}, got {n}")


def naive_inner_product(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[i, j]
    return total


def naive_mean(a: np.ndarray) -> float:
    return naive_inner_product(a, np.ones_like(a)) / a.size


def naive_norm2(a: np.ndarray, h: float) -> float:
    return h * np.sqrt(naive_inner_product(a, a))


def zero_mean(phi: Field) -> Field:
    """Subtract the mean, returning the zero-mass part of the field."""
    return Field(phi.geometry, phi.values - mean(phi))


def apply_symbol(phi: Field, symbol: np.ndarray) -> np.ndarray:
    """Values of the circulant operator with a half-spectrum symbol applied to phi: one irfft2."""
    return irfft2(phi.spectrum * symbol)


def kernel_table(kernel: SampledKernel) -> np.ndarray:
    """The kernel at the vertices (a*h, b*h): the outer product of a separable kernel's factors."""
    return np.outer(*kernel.samples) if isinstance(kernel.samples, tuple) else kernel.samples


def dense_1d_second_difference(n: int, h: float) -> np.ndarray:
    """Dense matrix of minus the periodic 1D second difference."""
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 2.0
        m[i, (i + 1) % n] -= 1.0
        m[i, (i - 1) % n] -= 1.0
    return m / h**2


def dense_minus_laplacian(geometry: GridGeometry) -> np.ndarray:
    """Dense matrix of minus the 2D Laplacian, assembled from 1D blocks."""
    _guard(geometry.n)
    d = dense_1d_second_difference(geometry.n, geometry.h)
    eye = np.eye(geometry.n)
    return np.kron(eye, d) + np.kron(d, eye)


def laplacian_eigenvalue_formula(geometry: GridGeometry) -> np.ndarray:
    """Closed-form eigenvalues of minus the Laplacian, by explicit double loop."""
    n, h = geometry.n, geometry.h
    out = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            out[k, l] = (2.0 / h**2) * (2.0 - np.cos(2.0 * np.pi * k / n)
                                        - np.cos(2.0 * np.pi * l / n))
    return out


def dense_minus_laplacian_pinv(geometry: GridGeometry) -> np.ndarray:
    """Pseudo-inverse of minus the Laplacian on the zero-mean subspace."""
    a = dense_minus_laplacian(geometry)
    vals, vecs = np.linalg.eigh(a)
    inv = np.where(vals > 1e-9, 1.0 / np.where(vals > 1e-9, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def direct_dft2(values: np.ndarray) -> np.ndarray:
    """O(N^4) two-dimensional DFT from the defining sum."""
    n = values.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            acc = 0.0 + 0.0j
            for i in range(n):
                for j in range(n):
                    acc += values[i, j] * np.exp(-2j * np.pi * (k * i + l * j) / n)
            out[k, l] = acc
    return out


def direct_convolution(kernel: SampledKernel, values: np.ndarray) -> np.ndarray:
    """Quadruple-loop periodic convolution h^2 sum_kl J_kl phi_{i-k, j-l}."""
    n = kernel.geometry.n
    h2 = kernel.geometry.h**2
    table = kernel_table(kernel)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    acc += table[k % n, l % n] * values[(i - k) % n, (j - l) % n]
            out[i, j] = h2 * acc
    return out


def dense_convolution_matrix(kernel: SampledKernel) -> np.ndarray:
    """Dense matrix of phi -> [J (*) phi] in row-major cell ordering."""
    n = kernel.geometry.n
    _guard(n)
    h2 = kernel.geometry.h**2
    table = kernel_table(kernel)
    m = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for ip in range(n):
                for jp in range(n):
                    m[row, ip * n + jp] = h2 * table[(i - ip) % n, (j - jp) % n]
    return m


def dense_nonlocal_matrix(kernel: SampledKernel) -> np.ndarray:
    """Dense matrix of phi -> [J(*)1] phi - [J (*) phi]."""
    n2 = kernel.geometry.n ** 2
    return kernel.conv_one * np.eye(n2) - dense_convolution_matrix(kernel)


def nonlocal_eigenvalue_formula(kernel: SampledKernel) -> np.ndarray:
    """Closed-form eigenvalues h^2 sum J (1 - cos(2 pi (ki + lj)/N)) by loops."""
    n = kernel.geometry.n
    h2 = kernel.geometry.h**2
    table = kernel_table(kernel)
    out = np.zeros((n, n))
    for k in range(n):
        for l in range(n):
            acc = 0.0
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    acc += table[i % n, j % n] * (
                        1.0 - np.cos(2.0 * np.pi * (k * i + l * j) / n))
            out[k, l] = h2 * acc
    return out


def periodized_gaussian_mass(amplitude: float, decay_rate: float, length: float,
                             images: int) -> float:
    """Integral over the domain of the image-folded Gaussian, by 1D quadrature."""
    def folded(x: float) -> float:
        return sum(np.exp(-decay_rate * (x - p * length) ** 2)
                   for p in range(-images, images + 1))

    one_d, _ = quad(folded, 0.0, length, limit=200, epsabs=1e-14, epsrel=1e-13)
    return amplitude * one_d**2


def naive_energy(u: np.ndarray, kernel: SampledKernel, epsilon: float,
                 spec: PotentialSpec) -> float:
    """Loop-based free energy with the direct convolution."""
    h2 = kernel.geometry.h**2
    bulk = h2 * naive_inner_product(np.asarray(potential_value(spec, u)), np.ones_like(u))
    conv = direct_convolution(kernel, u)
    quad_term = 0.5 * epsilon**2 * (kernel.conv_one * h2 * naive_inner_product(u, u)
                                    - h2 * naive_inner_product(u, conv))
    return bulk + quad_term


def _damped_newton(residual, jacobian, x0: np.ndarray, tol: float = 1e-13,
                   max_iter: int = 200) -> np.ndarray:
    x = x0.copy()
    r = residual(x)
    rnorm = np.linalg.norm(r)
    for _ in range(max_iter):
        if rnorm <= tol:
            return x
        delta = np.linalg.solve(jacobian(x), -r)
        alpha = 1.0
        while True:
            trial = x + alpha * delta
            r_trial = residual(trial)
            trial_norm = np.linalg.norm(r_trial)
            if trial_norm <= (1.0 - 1e-4 * alpha) * rnorm or alpha < 2.0**-40:
                break
            alpha *= 0.5
        x, r, rnorm = trial, r_trial, trial_norm
    if rnorm > tol:
        raise RuntimeError(f"dense Newton oracle stalled at residual {rnorm:.3e}")
    return x


def dense_nonlinear_step(scheme: str, u_n: Field, u_prev: Field | None, tau: float,
                         epsilon: float, kernel: SampledKernel,
                         spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense damped-Newton solve of the coupled (u, omega) step system.

    Returns flattened (U, W) for one step of the implicit schemes
    (backward_euler, bdf2, convex_splitting) on the fully assembled
    2 N^2-unknown system.
    """
    geometry = u_n.geometry
    _guard(geometry.n)
    m = geometry.n ** 2
    a_h = dense_minus_laplacian(geometry)
    conv = dense_convolution_matrix(kernel)
    nonlocal_m = kernel.conv_one * np.eye(m) - conv
    eps2 = epsilon**2
    un = u_n.values.ravel()

    if scheme == "backward_euler":
        time_c = 1.0 / tau
        time_rhs = un / tau
    elif scheme == "bdf2":
        if u_prev is None:
            raise ValueError("bdf2 oracle needs the previous level")
        time_c = 3.0 / (2.0 * tau)
        time_rhs = (4.0 * un - u_prev.values.ravel()) / (2.0 * tau)
    elif scheme == "convex_splitting":
        time_c = 1.0 / tau
        time_rhs = un / tau
    else:
        raise ValueError(f"no dense nonlinear oracle for scheme {scheme!r}")

    if scheme == "convex_splitting":
        explicit = un + eps2 * (kernel.conv_one * un + conv @ un)

        def omega_eq(u):
            return u**3 + 2.0 * eps2 * kernel.conv_one * u - explicit

        def omega_jac(u):
            return np.diag(3.0 * u**2) + 2.0 * eps2 * kernel.conv_one * np.eye(m)
    else:
        def omega_eq(u):
            return np.asarray(potential_d1(spec, u)) + eps2 * (nonlocal_m @ u)

        def omega_jac(u):
            return np.diag(np.asarray(potential_d2(spec, u))) + eps2 * nonlocal_m

    def residual(x):
        u, w = x[:m], x[m:]
        return np.concatenate([time_c * u - time_rhs + a_h @ w, w - omega_eq(u)])

    def jacobian(x):
        u = x[:m]
        top = np.hstack([time_c * np.eye(m), a_h])
        bottom = np.hstack([-omega_jac(u), np.eye(m)])
        return np.vstack([top, bottom])

    x0 = np.concatenate([un, omega_eq(un)])
    # The attainable residual floor scales with the 1/tau term.
    x = _damped_newton(residual, jacobian, x0, tol=1e-13 * max(1.0, time_c))
    return x[:m], x[m:]


def dense_linear_step(scheme: str, u_n: Field, u_prev: Field | None, tau: float,
                      epsilon: float, stabilization: float, kernel: SampledKernel,
                      spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense direct solve of one linear scheme step (ssi1 or two_li)."""
    geometry = u_n.geometry
    _guard(geometry.n)
    m = geometry.n ** 2
    a_h = dense_minus_laplacian(geometry)
    conv = dense_convolution_matrix(kernel)
    nonlocal_m = kernel.conv_one * np.eye(m) - conv
    eps2 = epsilon**2
    un = u_n.values.ravel()

    if scheme == "ssi1":
        lhs = np.eye(m) / tau + stabilization * a_h + eps2 * (a_h @ nonlocal_m)
        f_explicit = np.asarray(potential_d1(spec, un))
        rhs = un / tau + a_h @ (stabilization * un - f_explicit)
        u = np.linalg.solve(lhs, rhs)
        w = f_explicit + stabilization * (u - un) + eps2 * (nonlocal_m @ u)
    elif scheme == "two_li":
        if u_prev is None:
            raise ValueError("two_li oracle needs the previous level")
        upn = u_prev.values.ravel()
        lhs = 3.0 * np.eye(m) / (2.0 * tau) + eps2 * (a_h @ nonlocal_m)
        extrapolated = 2.0 * np.asarray(potential_d1(spec, un)) \
            - np.asarray(potential_d1(spec, upn))
        rhs = (4.0 * un - upn) / (2.0 * tau) - a_h @ extrapolated
        u = np.linalg.solve(lhs, rhs)
        w = extrapolated + eps2 * (nonlocal_m @ u)
    else:
        raise ValueError(f"no dense linear oracle for scheme {scheme!r}")
    return u, w
