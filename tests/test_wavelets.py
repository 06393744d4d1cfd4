"""The filter and tables are derived, not hardcoded, so these identity
checks genuinely pin down the construction: a Daubechies filter of order 5
is the unique minimum-phase length-10 solution of the orthonormality and
vanishing-moment constraints."""

import numpy as np
import pytest

from ecgid.errors import InvariantViolation
from ecgid.wavelets import (
    CASCADE_LEVELS,
    mother_wavelet,
    quadrature_mirror,
    scaling_filter,
    wavelet_kernel,
    wavelet_table,
)


def cascade(v):
    """(grid, f): the cascade algorithm from first-level coefficients v,
    upsampled and convolved with the scaling filter down to the finest
    dyadic level."""
    h = scaling_filter()
    for _ in range(CASCADE_LEVELS - 1):
        up = np.zeros(2 * v.size - 1)
        up[::2] = v
        v = np.convolve(up, h)
    f = v * 2.0 ** (CASCADE_LEVELS / 2.0)
    return np.arange(f.size) / 2.0 ** CASCADE_LEVELS, f


def test_wavelet_table_is_the_cascade_of_the_highpass_filter():
    # ties the scaling-function checks below to the table the package uses
    grid, psi = wavelet_table()
    want_grid, want_psi = cascade(quadrature_mirror(scaling_filter()))
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(psi, want_psi)


def test_filter_orthonormality():
    h = scaling_filter()
    assert h.size == 10
    assert abs(np.sum(h) - np.sqrt(2.0)) < 1e-12
    assert abs(np.sum(h * h) - 1.0) < 1e-12
    for m in range(1, 5):
        assert abs(np.dot(h[:-2 * m], h[2 * m:])) < 1e-10


def test_five_vanishing_moments():
    g = quadrature_mirror(scaling_filter())
    k = np.arange(10.0)
    for p in range(5):
        assert abs(np.dot(g, k ** p)) < 1e-10


def test_minimum_phase_orientation():
    # the energy of a minimum-phase filter concentrates at the front
    h = scaling_filter()
    front = np.sum(h[:5] ** 2)
    assert front > 0.9


def test_tables_integrals_and_partition_of_unity():
    grid, psi = wavelet_table()
    _, phi = cascade(scaling_filter())  # the scaling function
    scale = 2.0 ** 8
    assert abs(np.sum(phi) / scale - 1.0) < 1e-9
    assert abs(np.sum(psi) / scale) < 1e-9
    # integer translates of the scaling function sum to one everywhere
    step = int(scale)
    worst = 0.0
    for i in range(step):
        idx = i + step * np.arange(9)
        idx = idx[idx < phi.size]
        worst = max(worst, abs(float(np.sum(phi[idx])) - 1.0))
    assert worst < 1e-12
    # polynomial moments up to degree 4 vanish for the wavelet
    for p in range(5):
        assert abs(np.sum(psi * grid ** p) / scale) < 1e-10


def test_mother_wavelet_support_and_interpolation():
    grid, psi = wavelet_table()
    assert np.allclose(mother_wavelet(np.array([-4.6, 4.6, -99.0, 99.0])), 0.0)
    # linear interpolation: midpoint of adjacent grid values is their average
    x0, x1 = grid[100] - 4.5, grid[101] - 4.5
    assert abs(mother_wavelet((x0 + x1) / 2) -
               (psi[100] + psi[101]) / 2) < 1e-15
    # on-grid evaluation reproduces the table
    probe = grid[500] - 4.5
    assert mother_wavelet(probe) == psi[500]


def test_wavelet_kernel_geometry():
    for a in (1.0, 3.0, 7.0, 32.0):
        k = wavelet_kernel(a)
        half = int(np.ceil(4.5 * a))
        assert k.size == 2 * half + 1
        u = np.arange(-half, half + 1)
        direct = mother_wavelet(u / a) / np.sqrt(a)
        assert np.array_equal(k, direct)
    # 1e300 fails in np.arange, before any kernel is allocated
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e300):
        with pytest.raises(InvariantViolation, match="scale"):
            wavelet_kernel(bad)
