"""Shared numerical primitives.

IIR Butterworth band-pass design (analog prototype, frequency pre-warping,
bilinear transform), zero-phase filtering and Hamming windows.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidBand, InvariantViolation, NonFiniteSample, SignalTooShort

# the band every record is filtered to for detection and features
BAND_HZ = (0.5, 40.0)


@dataclass(frozen=True)
class FilterCoefficients:
    """Digital IIR transfer function b(z)/a(z) of band-pass order ``order``.

    Invariants checked on construction: finite taps, a nonzero numerator,
    a[0] exactly 1 and every pole at radius < 1 - 1e-8.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    order: int

    def __post_init__(self):
        b = np.asarray(self.numerator, dtype=float)
        a = np.asarray(self.denominator, dtype=float)
        object.__setattr__(self, "numerator", b)
        object.__setattr__(self, "denominator", a)
        if not (np.isfinite(b).all() and np.isfinite(a).all() and b.any()):
            raise InvalidBand("coefficients must be finite, b not all zero")
        if a[0] != 1.0:
            raise InvalidBand("denominator must be normalized to a[0] = 1")
        roots = np.roots(a)
        if roots.size and np.max(np.abs(roots)) >= 1.0 - 1e-8:
            raise InvalidBand("unstable design: pole on or outside the unit circle")


def design_butterworth_bandpass(order, lo_hz, hi_hz, fs_hz):
    """Design a digital Butterworth band-pass filter.

    Construction: analog low-pass prototype of order ``order/2``, low-pass to
    band-pass transform, then bilinear transform with frequency pre-warping.
    ``order`` is the final band-pass polynomial order and must be even.

    Parameters
    ----------
    order : int
        Final band-pass order (even, positive).
    lo_hz, hi_hz : float
        Cut-off frequencies; magnitude is ~1/sqrt(2) at each.
    fs_hz : float
        Sampling rate; requires real 0 < lo_hz < hi_hz < fs_hz / 2 < inf.

    Returns
    -------
    FilterCoefficients
    """
    if not isinstance(order, numbers.Integral) or order <= 0 or order % 2 != 0:
        raise InvalidBand("order must be a positive even integer, got %r" % (order,))
    # finite floats only: an int above the largest float overflows fs_hz / 2
    if not (all(isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max
                for v in (lo_hz, hi_hz, fs_hz))
            and 0 < lo_hz < hi_hz < fs_hz / 2):
        raise InvalidBand("need real 0 < lo < hi < fs/2 < inf, got lo=%r hi=%r "
                          "fs=%r" % (lo_hz, hi_hz, fs_hz))
    # the gain's denominator is at least (2 fs)^order: it must be a float
    if fs_hz > sys.float_info.max ** (1.0 / order) / 2:
        raise InvalidBand("rate %r too high for order %d" % (fs_hz, order))
    m = order // 2

    # pre-warp the band edges so the bilinear transform lands them exactly
    w1 = 2.0 * fs_hz * np.tan(np.pi * lo_hz / fs_hz)
    w2 = 2.0 * fs_hz * np.tan(np.pi * hi_hz / fs_hz)
    bw = w2 - w1
    w0sq = w1 * w2

    # analog low-pass prototype poles on the unit circle, left half plane
    k = np.arange(1, m + 1)
    p_lp = np.exp(1j * np.pi * (2 * k + m - 1) / (2 * m))

    # low-pass -> band-pass: each prototype pole splits into a conjugate pair
    half = p_lp * bw / 2.0
    root = np.sqrt(half ** 2 - w0sq + 0j)
    poles = np.concatenate([half + root, half - root])

    # H(s) = bw^m * s^m / prod(s - p); bilinear s = 2 fs (z-1)/(z+1)
    fs2 = 2.0 * fs_hz
    z_poles = (fs2 + poles) / (fs2 - poles)
    z_zeros = np.concatenate([np.ones(m), -np.ones(m)])
    gain = (bw ** m) * (fs2 ** m) / np.prod(fs2 - poles)

    b = np.real(gain) * np.real(np.poly(z_zeros))
    a = np.real(np.poly(z_poles))
    a = a / a[0]
    a[0] = 1.0
    return FilterCoefficients(b, a, order)


def filter_zero_phase(coeffs, x):
    """Apply a filter forward and backward for zero net phase.

    The input is extended with 3 x order reflected samples on each side
    before filtering and trimmed afterwards, so startup transients do not
    reach the signal. Output length equals input length. The input must
    be 1-D, numeric and finite.
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvariantViolation("need a numeric signal: %s" % e) from None
    if x.ndim != 1:
        raise InvariantViolation("need a 1-D signal, got %d-D" % x.ndim)
    if not np.isfinite(x).all():
        raise NonFiniteSample("signal holds a NaN or infinite sample")
    pad = 3 * coeffs.order
    if x.size <= pad:
        raise SignalTooShort(
            "need more than %d samples for zero-phase filtering, got %d"
            % (pad, x.size)
        )
    left = x[pad:0:-1]
    right = x[-2:-pad - 2:-1]
    ext = np.concatenate([left, x, right])
    b, a = coeffs.numerator, coeffs.denominator
    y = lfilter(b, a, ext)
    y = lfilter(b, a, y[::-1])[::-1]
    return y[pad:pad + x.size]


def preprocess_ecg(x, fs_hz, lo_hz=BAND_HZ[0], hi_hz=BAND_HZ[1]):
    """Standard front-end: zero-phase order-4 band-pass, default BAND_HZ."""
    coeffs = design_butterworth_bandpass(4, lo_hz, hi_hz, fs_hz)
    return filter_zero_phase(coeffs, x)


def hamming_window(n):
    """Hamming window w[k] = 0.54 - 0.46 cos(2 pi k / (n-1)); n=1 gives [1.0]."""
    if n < 1:
        raise InvalidBand("window length must be >= 1")
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))
