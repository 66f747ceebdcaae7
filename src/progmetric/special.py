"""The logistic sigmoid and the standard normal CDF, in numpy.

`expit` is 1 / (1 + exp(-t)) and `ndtr` is Cephes `ndtr`/`erf`/`erfc`.
Both evaluate their formulas in the compiled C order and take `exp` from
the C library through `math.exp`, so they return the float64 bits of the
C implementations; the tests compare them on over 10^6 values.  numpy's
vectorised `exp` differs from the C library's in the last bit on some
inputs, so it is not used.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = 0.70710678118654752440  # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # ln(2^1024): erfc(x) is 0 once x*x exceeds it

# Cephes erfc on 1 <= x < 8: P(x) / Q(x), Q monic.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# Cephes erfc on x >= 8: R(x) / S(x), S monic.
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# Cephes erf on |x| <= 1: x T(x^2) / U(x^2), U monic.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)


def _exp_or_inf(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _exp(x):
    """The C library's exp of each entry of a 1-D float array; inf where it
    overflows (math.exp raises there instead)."""
    values = x.tolist()
    try:
        return np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:  # an entry above ~709.78: rare, so retried per entry
        return np.fromiter(map(_exp_or_inf, values), float, len(values))


def expit(t):
    """Logistic sigmoid 1 / (1 + exp(-t)), elementwise; 0 where exp(-t)
    overflows."""
    t = np.asarray(t, dtype=float)
    e = _exp(-t.ravel())
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(t.shape)


def _padded(coef, monic=False):
    """coef led by zeros (and by 1 when monic) to nine coefficients."""
    coef = ((1.0,) if monic else ()) + coef
    return (0.0,) * (9 - len(coef)) + coef


# Cephes's three rational functions as (numerator, denominator) coefficients,
# leading first, so that one Horner pass evaluates each entry's own.  Horner's
# rule over the padding gives the bits of Cephes's `polevl` and `p1evl`: on a
# finite argument, 0 * x + 0 is 0 and 1 * x + c is x + c.
_RATIONAL = np.array([
    [_padded(_ERF_T), _padded(_ERF_U, monic=True)],    # erf: s T(s^2) / U(s^2)
    [_padded(_ERFC_P), _padded(_ERFC_Q, monic=True)],  # erfc: e^(-z^2) P(z) / Q(z)
    [_padded(_ERFC_R), _padded(_ERFC_S, monic=True)],  # erfc: e^(-z^2) R(z) / S(z)
]).transpose(2, 1, 0)  # (coefficient, numerator or denominator, function)


def ndtr(a):
    """Standard normal CDF, elementwise (NaN gives NaN).

    With x = a / sqrt(2) and z = |x|: 0.5 + 0.5 erf(x) for z < 1/sqrt(2),
    0.5 (1 - erf(z)) for z < 1, and 0.5 erfc(z) beyond, where erfc is 0 once
    exp(-z^2) underflows; for x > 0 outside the first range, 1 minus that.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    near = z < _SQRT1_2
    on_erf = z < 1.0
    with np.errstate(over="ignore"):  # z above ~1.3e154: inf, which underflows
        sq = z * z
    on_erfc = ~on_erf & (sq <= _MAXLOG)  # false on NaN too
    s = np.where(near, x, z)
    # f = pre * numerator(arg) / denominator(arg): erf(s) or erfc(z), and 0
    # (from a finite stand-in argument) where erfc underflows or x is NaN.
    arg = np.where(on_erf, sq, np.where(on_erfc, z, 1.0))
    pre = np.where(on_erf, s, 0.0)
    live = np.flatnonzero(on_erfc)
    pre[live] = _exp(-sq[live])
    coef = _RATIONAL[:, :, np.where(on_erf, 0, np.where(z < 8.0, 1, 2))]
    ratio = coef[0].copy()
    for c in coef[1:]:
        ratio *= arg
        ratio += c
    f = pre * ratio[0] / ratio[1]
    y = np.where(near, 0.5 + 0.5 * f, 0.5 * np.where(on_erf, 1.0 - f, f))
    y = np.where(~near & (x > 0.0), 1.0 - y, y)
    y[np.isnan(x)] = np.nan
    return y.reshape(a.shape)
