"""Daubechies-5 wavelet tabulated by the cascade algorithm.

The scaling filter is derived from first principles (spectral factorization
of the halfband polynomial, minimum-phase root selection) rather than typed
in as literals, so the orthogonality and vanishing-moment identities in the
tests genuinely verify the construction. The wavelet function is tabulated
on a dyadic grid over its support [0, 9] and evaluated elsewhere by linear
interpolation.
"""

from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvariantViolation

N_VANISHING = 5  # Daubechies-5: filter length 10, support [0, 9]
CASCADE_LEVELS = 8
SUPPORT = 2 * N_VANISHING - 1
CENTER = SUPPORT / 2.0


@lru_cache(maxsize=1)
def scaling_filter():
    """Length-10 orthonormal scaling filter h with sum sqrt(2)."""
    n = N_VANISHING
    # halfband magnitude polynomial B(y) = sum C(n-1+k, k) y^k, evaluated at
    # y = (2 - z - 1/z)/4 = -(z-1)^2 / (4z); multiplying by z^(n-1) clears
    # the negative powers, leaving a degree 2(n-1) polynomial in z
    y_num = np.array([-0.25, 0.5, -0.25])  # -(z-1)^2/4 as coefficients in z
    poly = np.zeros(2 * (n - 1) + 1)
    for k in range(n):
        term = np.array([float(comb(n - 1 + k, k))])
        for _ in range(k):
            term = np.convolve(term, y_num)
        # term has degree 2k and carries z^-k; shift up by z^(n-1-k)
        pad = poly.size - (term.size + (n - 1 - k))
        poly += np.concatenate([np.zeros(pad), term, np.zeros(n - 1 - k)])
    roots = np.roots(poly)
    inside = roots[np.abs(roots) < 1.0]
    q = np.real(np.poly(inside))
    h = np.array([1.0])
    for _ in range(n):
        h = np.convolve(h, [0.5, 0.5])
    h = np.convolve(h, q)
    h = h * (np.sqrt(2.0) / np.sum(h))
    return h


def quadrature_mirror(h):
    """Highpass filter g[k] = (-1)^k h[L-1-k]."""
    signs = (-1.0) ** np.arange(h.size)
    return signs * h[::-1]


@lru_cache(maxsize=1)
def wavelet_table():
    """(grid, psi) pair: psi sampled at grid points spanning [0, 9].

    The cascade algorithm: the highpass filter's coefficients, upsampled and
    convolved with the scaling filter down to the finest dyadic level."""
    h = scaling_filter()
    v = quadrature_mirror(h)
    for _ in range(CASCADE_LEVELS - 1):
        up = np.zeros(2 * v.size - 1)
        up[::2] = v
        v = np.convolve(up, h)
    psi = v * 2.0 ** (CASCADE_LEVELS / 2.0)
    return np.arange(psi.size) / 2.0 ** CASCADE_LEVELS, psi


def mother_wavelet(x):
    """psi evaluated at center-relative positions x (zero outside support)."""
    grid, psi = wavelet_table()
    x = np.asarray(x, dtype=float) + CENTER
    return np.interp(x, grid, psi, left=0.0, right=0.0)


def wavelet_kernel(scale):
    """Sampled psi(u/scale)/sqrt(scale) for integer u, odd length."""
    if not 0 < scale < np.inf:
        raise InvariantViolation("scale %r is not finite and > 0" % scale)
    half = int(np.ceil(CENTER * scale))
    try:
        u = np.arange(-half, half + 1)
    except (ValueError, MemoryError) as exc:
        raise InvariantViolation("scale %r is too large" % scale) from exc
    return mother_wavelet(u / scale) / np.sqrt(scale)
