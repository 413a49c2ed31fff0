"""Chi-square and normal tail probabilities for the comparison's p-values.

A line-for-line port, in stdlib `math`, of the cephes code scipy 1.17.1
runs for `scipy.special.chdtrc` and `scipy.special.ndtr`, so Friedman and
Wilcoxon p-values keep scipy's bits without importing scipy. Every
operation is the C code's, in the C code's order: IEEE doubles and the
same libm `exp`, `log`, `pow` and `sqrt` round the same way.

Three cephes branches of `igamc` are not reproduced here: `igamc_series`
(a <= 1 and x <= 1.1), `asymptotic_series` (a > 20 with x near a) and the
`log1pmx` form of `igam_fac` (a or x >= 200 with x near a). Where `chdtrc`
reaches one of them it returns scipy's own value, importing scipy then.
The Friedman tests of exp2 and exp3 (3 to 5 degrees of freedom) never do.
"""

from __future__ import annotations

import math


class NotPorted(Exception):
    """Raised where cephes takes a branch this module does not reproduce."""


MACHEP = 1.11022302462515654042e-16
MAXLOG = 7.09782712893383996843e2
MAXITER = 2000
BIG = 4.503599627370496e15
BIGINV = 2.22044604925031308085e-16
SQRTH = 7.07106781186547524401e-1

# lgam: Stirling's series above 13, a rational approximation on [2, 3) below
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)
LS2PI = 0.91893853320467274178      # log(sqrt(2 pi))

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

# erfc on [1, 8) and [8, inf), erf on [0, 1]
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)


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
    """log|Gamma(x)| for finite x > 0."""
    if x < 13.0:
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
    q = (x - 0.5) * math.log(x) - x + LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _A) / x
    return q


def _igam_fac(a: float, x: float) -> float:
    """x^a exp(-x) / Gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    if a >= 200 or x >= 200:
        raise NotPorted("igam_fac's log1pmx form")
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
    if x < 0 or a < 0:
        return math.nan
    if a == 0:
        return 0.0 if x > 0 else math.nan
    if x == 0:
        return 1.0
    if math.isinf(a):
        return math.nan if math.isinf(x) else 1.0
    if math.isinf(x):
        return 0.0
    absxma_a = abs(x - a) / a
    if (20 < a < 200 and absxma_a < 0.3) or (a > 200 and absxma_a < 4.5 / math.sqrt(a)):
        raise NotPorted("asymptotic_series")
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
    if math.isnan(df) or math.isnan(x):
        return math.nan
    try:
        return _igamc(df / 2.0, x / 2.0)
    except NotPorted:
        from scipy.special import chdtrc as scipy_chdtrc
        return float(scipy_chdtrc(df, x))


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            p = _polevl(x, _P)
            q = _p1evl(x, _Q)
        else:
            p = _polevl(x, _R)
            q = _p1evl(x, _S)
        y = (z * p) / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def ndtr(a: float) -> float:
    """P(Z <= a) for a standard normal Z; scipy's bits."""
    if math.isnan(a):
        return math.nan
    x = a * SQRTH
    z = abs(x)
    if z < SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    if x > 0:
        y = 1.0 - y
    return y
