"""The chi-square tail probability for the Friedman test's p-value.

A line-for-line port, in stdlib `math`, of the cephes code scipy 1.17.1 runs
for `scipy.special.chdtrc`, so Friedman p-values keep scipy's bits without
importing scipy. Every operation is the C code's, in the C code's order: IEEE
doubles and the same libm `exp`, `log`, `pow` and `sqrt` round the same way.

The port covers 0 < a < 13 with finite x >= 0 (a = df/2, x = statistic/2), so
Friedman tests of up to 26 methods, every preset's included. Within that range
one cephes branch of `igamc` is not reproduced: `igamc_series` (a <= 1 and
x <= 1.1, reached by 2 or 3 methods). Where `chdtrc` reaches it, or an input
outside the range (27 or more methods, or a non-finite input), it returns
scipy's own value, importing scipy then.

The Wilcoxon normal tail for n > 25 is not ported: `wilcoxon_signed_rank`
imports `scipy.special.ndtr`, which no preset at its default 20 folds reaches."""

from __future__ import annotations

import math


class NotPorted(Exception):
    """Raised for an input or a cephes branch this module does not reproduce."""


MACHEP = 1.11022302462515654042e-16
MAXLOG = 7.09782712893383996843e2
MAXITER = 2000
BIG = 4.503599627370496e15
BIGINV = 2.22044604925031308085e-16

# lgam below 13: a rational approximation on [2, 3)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)

# Lanczos approximation (g = 6.0247, 13 terms), scaled by exp(g)
LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
                  45995730.0, 105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)

def _polevl(x: float, coef) -> float:
    """Horner's rule, highest degree first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """Horner's rule with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ratevl(x: float, num, denom) -> float:
    """num(x) / denom(x), in powers of 1/x when |x| > 1 (numerator and
    denominator of equal degree, so the C code's pow(x, 0) factor is 1)."""
    if abs(x) > 1:
        y = 1 / x
        num, denom = num[::-1], denom[::-1]
    else:
        y = x
    return _polevl(y, num) / _polevl(y, denom)


def _lgam(x: float) -> float:
    """log|Gamma(x)| for 0 < x < 13."""
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    p = x * _polevl(x, _B) / _p1evl(x, _C)
    return math.log(z) + p


def _igam_fac(a: float, x: float) -> float:
    """x^a exp(-x) / Gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DENOM)
    res *= math.exp(a - x) * math.pow(x / fac, a)
    return res


def _igamc_continued_fraction(a: float, x: float) -> float:
    """igamc by DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > BIG:
            pkm2 *= BIGINV
            pkm1 *= BIGINV
            qkm2 *= BIGINV
            qkm1 *= BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    """igam by DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def _igamc(a: float, x: float) -> float:
    """The regularized upper incomplete gamma Q(a, x)."""
    if not (0 < a < 13 and 0 <= x < math.inf):
        raise NotPorted("outside 0 < a < 13 with finite x >= 0")
    if x == 0:
        return 1.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        series = -0.4 / math.log(x) < a
    else:
        series = x * 1.1 < a
    if series:
        return 1.0 - _igam_series(a, x)
    raise NotPorted("igamc_series")


def chdtrc(df: float, x: float) -> float:
    """P(X > x) for X chi-square with df degrees of freedom; scipy's bits."""
    try:
        return _igamc(df / 2.0, x / 2.0)
    except NotPorted:
        from scipy.special import chdtrc as scipy_chdtrc
        return float(scipy_chdtrc(df, x))

