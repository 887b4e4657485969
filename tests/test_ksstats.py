"""The KS tests equal scipy.stats' bit for bit, on every branch of the law.

`walkstop._ksstats` ports scipy.stats.kstwo.sf and the two-sided
method="asymp" KS tests so that `gof_test` never loads scipy.stats.  Here
each result is compared with scipy.stats' own by `==`: the survival
function on an (n, x) grid chosen to reach each branch of Simard &
L'Ecuyer's algorithm, and `gof_test`'s statistic and p-value on samples
that reach the support cuts, ties and unequal sizes.
"""

import numpy as np
import pytest
import scipy.stats

from walkstop import Empirical, Exponential, Uniform, _ksstats, gof_test

KERNELS = ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood")

# (n, x, the kernel that must run, or None where a closed form answers)
SF_CASES = {
    # n <= 140
    "support cut x <= 0.5/n": (10, 0.05, None),
    "support cut x >= 1": (10, 1.0, None),
    "beyond the support": (10, 1.5, None),
    "Ruben-Gambino nx <= 1, product": (10, 0.08, None),
    "Ruben-Gambino nx = 1": (10, 0.1, None),
    "Ruben-Gambino nx >= n - 1": (10, 0.9, None),
    "x >= 0.5, 2 smirnov": (10, 0.6, None),
    "x = 0.5, 2 smirnov": (40, 0.5, None),
    "DMTW": (10, 0.2, "_kolmogn_DMTW"),
    "DMTW, n = 140": (140, 0.07, "_kolmogn_DMTW"),
    "Pomeranz": (10, 0.4, "_kolmogn_Pomeranz"),
    "Pomeranz, n = 139": (139, 0.15, "_kolmogn_Pomeranz"),
    "Pomeranz, nx^2 = 4": (100, 0.2, "_kolmogn_Pomeranz"),
    "Miller 2 smirnov": (100, 0.3, None),
    # n > 140
    "n > 140, support cut x <= 0.5/n": (1000, 0.0005, None),
    "Ruben-Gambino nx <= 1, Stirling": (1000, 0.0008, None),
    "n > 140, Ruben-Gambino nx >= n - 1": (1000, 0.9995, None),
    "n > 140, x >= 0.5": (1000, 0.6, None),
    "nx^2 >= 370, zero": (2000, 0.45, None),
    "nx^2 >= 2.2, 2 smirnov": (1000, 0.1, None),
    "n > 140, DMTW": (1000, 0.01, "_kolmogn_DMTW"),
    "n > 140, DMTW, n = 141": (141, 0.04, "_kolmogn_DMTW"),
    "DMTW, rescaled": (100000, 0.0001, "_kolmogn_DMTW"),
    "Pelz-Good": (1750, 0.02, "_kolmogn_PelzGood"),
    "Pelz-Good, n > 100000": (200000, 0.002, "_kolmogn_PelzGood"),
    "Pelz-Good, z below its cut": (200000, 5e-5, "_kolmogn_PelzGood"),
}


@pytest.mark.parametrize("n, x, kernel", list(SF_CASES.values()), ids=list(SF_CASES))
def test_kstwo_sf_is_scipy_bit_for_bit(n, x, kernel, monkeypatch):
    ran = []
    for name in KERNELS:
        real = getattr(_ksstats, name)
        monkeypatch.setattr(_ksstats, name, lambda *a, _n=name, _f=real: ran.append(_n) or _f(*a))
    got = _ksstats.kstwo_sf(np.float64(x), np.float64(n))
    assert got == float(scipy.stats.kstwo.sf(x, np.float64(n)))
    assert ran == ([kernel] if kernel else [])


def test_kstwo_sf_grid_is_scipy_bit_for_bit():
    """A grid across the branch cut-offs, 0 to 1 in x, n from 1 to 100001."""
    rng = np.random.default_rng(30)
    for n in (1, 2, 3, 7, 40, 139, 140, 141, 500, 3000, 100001):
        cuts = np.array([0.754693, 2.2, 4.0, 18.0, 370.0])
        xs = np.concatenate([
            [0.5 / n, 1.0 / n, 1.5 / n, (n - 1.0) / n, 0.4999, 0.5, 0.5001, 0.99],
            np.sqrt(cuts / n), np.sqrt(cuts / n) * (1 + 1e-9), rng.uniform(0, 1, 12) ** 3,
        ])
        for x in xs:
            assert _ksstats.kstwo_sf(x, np.float64(n)) == float(scipy.stats.kstwo.sf(x, n)), (n, x)


def _one_sample_cases():
    rng = np.random.default_rng(2030)
    for size in (2, 10, 141, 1000, 4000):
        for scale in (0.3, 2.0):
            x = rng.exponential(scale * rng.uniform(0.8, 1.25), size)
            # values at or below 0 and at or above hi hit the CDFs' support cuts
            x[: size // 4] -= scale
            u = rng.uniform(-0.1 * scale, 1.1 * scale, size)
            yield x, scale, u
    yield np.round(rng.exponential(1.0, 500), 1), 1.0, np.round(rng.uniform(0, 1, 500), 1)


def test_one_sample_ks_is_scipy_kstest_bit_for_bit():
    for x, scale, u in _one_sample_cases():
        for sample, target, name in ((x, Exponential(mean=scale), "expon"), (u, Uniform(hi=scale), "uniform")):
            ref = scipy.stats.kstest(sample, name, args=(0.0, scale), method="asymp")
            got = gof_test(sample, target)
            assert (got.statistic, got.p_value) == (float(ref.statistic), float(ref.pvalue))


def _two_sample_cases():
    rng = np.random.default_rng(2031)
    for m, n in ((2, 1), (20, 20), (30, 45), (300, 120), (3500, 3500), (5000, 800)):
        for shift in (0.0, 0.15, 0.6, 3.0, 100.0):
            yield rng.exponential(1.0, m), rng.exponential(1.0, n) + shift
    x = np.round(rng.normal(size=700), 1)  # ties within and across the samples
    yield x, np.round(rng.normal(0.05, 1.0, 400), 1)
    yield x, x[::-1].copy()  # d = 0


def test_two_sample_ks_is_scipy_ks_2samp_bit_for_bit():
    for x, y in _two_sample_cases():
        ref = scipy.stats.ks_2samp(x, y, method="asymp")
        got = gof_test(x, Empirical(values=y))
        assert (got.statistic, got.p_value) == (float(ref.statistic), float(ref.pvalue))
