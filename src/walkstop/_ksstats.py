"""Kolmogorov-Smirnov tests without scipy.stats, on scipy.special at most.

`gof_test`'s three KS tests need two laws: the Kolmogorov limit, which is
scipy.special.kolmogorov, and the finite-n two-sided law of D_n, which
scipy keeps in scipy.stats.  Importing scipy.stats for that second law
costs most of a second and about 45 MB, so its survival function is ported
here: `kstwo_sf` is scipy.stats.kstwo.sf, the path of scipy 1.17.1's
stats/_ksstats.py::_kolmogn with cdf=False (Simard & L'Ecuyer 2011) behind
the support cut of rv_continuous.sf.  The kernels are scipy's code, with
the branches that path never reaches left out, so every result is equal
to scipy's bit for bit.  `ks_1samp` and `ks_2samp` are scipy.stats'
two-sided tests with method="asymp", and `expon_cdf` and `uniform_cdf` are
the standard laws' CDFs as rv_continuous.cdf evaluates them.

scipy.special is imported by the calls that use it, never when this module
loads: `ks_1samp` for kolmogorov, `expon_cdf` for expm1, and `_two_smirnov`
for the branches of the finite-n law that take 2 * smirnov.  The other
branches are numpy, so a two-sample test whose statistic stays below the
smirnov cuts loads no scipy module.  Those cuts are D >= 1/2, and n * D**2
above 4 for n <= 140 or at least 2.2 for larger n, where p is below about
0.025.

The kernels below are derived from SciPy, under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j=8,...1.
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's series, n*log(n) removed up-front.
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _clip_prob(p):
    """clips a probability to range 0<=p<=1."""
    return np.clip(p, 0.0, 1.0)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) for 1/n < d < 1/2: the Durbin matrix algorithm as
    Marsaglia, Tsang & Wang (2003) compute it, H^n by repeated squaring."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # This might underflow.  Isn't a problem.
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # Holds intermediate powers of H
    nn = n
    expnt = 0  # Scaling of Hpwr
    Hexpnt = 0  # Scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Compute the endpoints of the interval for row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz (1974) recursion: n! V[n-1, 2n+1], two
    rows of V kept, each the convolution of the last with Poisson terms."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # Maximum number of powers needed in convolutions
    gpower = np.empty(npwrs)  # gpower = (g/n)^m/m!
    twogpower = np.empty(npwrs)  # twogpower = (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # onem2gpower = ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # Preserve j1, V1, V1s, V0s from last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # First index to use from conv
            conv_len = j2 - j1 + 1  # Number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # Scale to avoid underflow.
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    # Undo any intermediate scaling
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip_prob(ans)


def _kolmogn_PelzGood(n, x):
    """Pelz & Good (1976)'s approximation to Pr(D_n <= x): the Li-Chien and
    Korolyuk series K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n**1.5 at
    z = x*sqrt(n), each term recast through Jacobi theta functions."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # Coefficients of terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd integers.
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The sums over all integers k that K_2 and K_3 add, taken directly.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    Ksum = sum(K0to3)
    return Ksum


def _two_smirnov(n, x):
    """2 * scipy.special.smirnov(n, x), clipped: the exact one-sided tail
    doubled.  scipy.special loads here, on the first statistic that needs
    it, so a two-sample test below every smirnov cut runs on numpy alone."""
    from scipy.special import smirnov

    return _clip_prob(2 * smirnov(n, x))


def _kolmogn_sf(n, x):
    """Pr(D_n > x) for integer n and 1/(2n) < x < 1 (Simard & L'Ecuyer)."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        prob = 2 * (1.0 - x)**n
        return _clip_prob(prob)
    if x >= 0.5:  # Exact: 2 * smirnov
        return _two_smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            prob = _kolmogn_DMTW(n, x)
            return _clip_prob(1.0 - prob)
        if nxsquared <= 4:
            prob = _kolmogn_Pomeranz(n, x)
            return _clip_prob(1.0 - prob)
        # Now use Miller approximation of 2*smirnov
        return _two_smirnov(n, x)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _two_smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_DMTW(n, x)
    else:
        cdfprob = _kolmogn_PelzGood(n, x)
    return _clip_prob(1.0 - cdfprob)


def kstwo_sf(d, n) -> float:
    """scipy.stats.kstwo.sf(d, n): Pr(D_n > d) for an integer-valued n >= 1.

    The law's support is [1/(2n), 1]; outside it the survival function is
    1 or 0.  Inside, d reaches the kernels as the 0-d float array that
    scipy's element loop hands them.
    """
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    return float(_kolmogn_sf(int(n), np.asarray(d, dtype=float)))


def _standard_cdf(u, b, inside):
    """CDF of a law on (0, b) as rv_continuous.cdf takes it: 0 at or below
    0, 1 at or above b, inside(u) between."""
    out = np.zeros(u.shape)
    between = (0.0 < u) & (u < b)
    out[u >= b] = 1.0
    out[between] = inside(u[between])
    return out


def expon_cdf(u):
    """scipy.stats.expon.cdf(u) on a sample standardized by the mean."""
    from scipy.special import expm1

    return _standard_cdf(u, np.inf, lambda v: -expm1(-v))


def uniform_cdf(u):
    """scipy.stats.uniform.cdf(u) on a sample standardized by the width."""
    return _standard_cdf(u, 1.0, lambda v: v)


def ks_1samp(u, cdf) -> tuple[float, float]:
    """Two-sided one-sample KS test of u against cdf, p from the
    Kolmogorov limit: scipy.stats.ks_1samp(u, cdf, method="asymp")."""
    u = np.sort(u)
    n = u.shape[-1]
    cdfvals = cdf(u)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    from scipy.special import kolmogorov

    # d >= 1/(2n) > 0, so kstwobign.sf's cut at 0 never applies.
    return float(d), float(_clip_prob(kolmogorov(d * math.sqrt(n))))


def ks_2samp(x, y) -> tuple[float, float]:
    """Two-sided two-sample KS test, p from the finite-n law at
    n = round(mn/(m+n)): scipy.stats.ks_2samp(x, y, method="asymp")."""
    x, y = np.sort(x), np.sort(y)
    n1, n2 = x.shape[0], y.shape[0]
    both = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, both, side="right") / n1
    cddiffs = cdf1 - np.searchsorted(y, both, side="right") / n2
    min_s = np.clip(-cddiffs.min(), 0, 1)
    max_s = cddiffs.max()
    d = min_s if min_s > max_s else max_s
    # gof_test's sample holds two distinct values, so m + n >= 3 and n >= 1.
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return float(d), float(_clip_prob(kstwo_sf(d, np.round(m * n / (m + n)))))
