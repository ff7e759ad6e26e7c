"""Standard-normal special functions: domain-checked numpy ports of the
Cephes routines ``ndtri`` and ``erfc``.

Everything downstream (extreme-value scaling constants, corrected
distributions, the Monte Carlo sampler) calls the functions in this
module, so they all share one definition of the Gaussian CDF and its
inverse.

Conventions: ``phi_kernel`` is the unnormalized kernel e^(-x^2/2); the
normalized density is ``phi_kernel(x) / sqrt(2*pi)``.  The CDF is evaluated
through the complementary error function, which stays accurate deep into
the lower tail; the quantile is ``ndtri``.

The ports follow Moshier's Cephes library (*Methods and Programs for
Mathematical Functions*, 1989), which ``scipy.special`` also runs: the
same coefficient tables, branch points and operation order, with every
logarithm and exponential taken from the C library's ``log`` and ``exp``.
So the results equal ``scipy.special.ndtri`` and ``scipy.special.erfc``
bit for bit, without importing scipy.

numpy's float ``log`` and ``exp`` may use SIMD loops that round
differently, but its complex128 loops call the C library's ``clog`` and
``cexp``, which reach the same ``log`` and ``exp`` on the arguments used
here.  ``_log`` and ``_exp`` keep the real part of those loops over a whole
array.  With a zero imaginary part, glibc's ``clog(x)`` is
``log(hypot(x, 0)) = log(x)`` for DBL_MIN <= x < 0.5 and for x >= 2 (on
[0.5, 2) it may take a ``log1p`` branch instead), and ``cexp(x)`` is
``exp(x) * 1`` for x <= 709.  The arguments stay inside those branches:

- ``ndtri``'s first logarithm gets y in (0, e^-2];
- its second gets sqrt(-2 log y) in [2, 38.6], exactly 2.0 at y = e^-2;
- ``erfc``'s exponential gets -a^2 in [-MAXLOG, -1].

The one exception is a subnormal y, which ``clog`` rescales before its
logarithm.  ``_log`` sends those elements, and only those, through
``math.log``.  The samplers never produce one: their uniforms are at least
2^-54, so only a caller's p below DBL_MIN reaches that path.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "phi_kernel",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
]

_SQRT2 = np.sqrt(2.0)
_DBL_MIN = np.finfo(float).tiny  # the smallest normal double
_SQRT2PI = np.sqrt(2.0 * np.pi)

# --- Cephes ndtri.c ----------------------------------------------------------

_EXPM2 = 0.13533528323661269189  # exp(-2): the central branch's edge
_S2PI = 2.50662827463100050242E0  # sqrt(2*pi)

# Central branch, 0 <= |y - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267E1, 9.80010754185999661536E1,
    -5.66762857469070293439E1, 1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0, 4.67627912898881538453E0,
    8.63602421390890590575E1, -2.25462687854119370527E2,
    2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
)
# Tails with x = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923E0, 3.15251094599893866154E1,
    5.71628192246421288162E1, 4.40805073893200834700E1,
    1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1, 4.53907635128879210584E1,
    4.13172038254672030440E1, 1.50425385692907503408E1,
    2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
)
# Tails with x in [8, 64): y below exp(-32).
_P2 = (
    3.23774891776946035970E0, 6.91522889068984211695E0,
    3.93881025292474443415E0, 1.33303460815807542389E0,
    2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0, 3.67983563856160859403E0,
    1.37702099489081330271E0, 2.16236993594496635890E-1,
    1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
)

# Elements that ``_ndtri_inplace`` evaluates at once.  Each temporary of
# ``_ndtri`` then holds at most 2**14 floats (128 KiB), whatever the size of
# the buffer it overwrites.
_QUANTILE_BLOCK = 2**14

# --- Cephes ndtr.c (erfc, erf) -----------------------------------------------

_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-a*a) underflows past it

# erfc for 1 <= |a| < 8.
_P = (
    2.46196981473530512524E-10, 5.64189564831068821977E-1,
    7.46321056442269912687E0, 4.86371970985681366614E1,
    1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3,
    5.57535335369399327526E2,
)
_Q = (
    1.32281951154744992508E1, 8.67072140885989742329E1,
    3.54937778887819891062E2, 9.75708501743205489753E2,
    1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2,
)
# erfc for |a| >= 8.
_R = (
    5.64189583547755073984E-1, 1.27536670759978104416E0,
    5.01905042251180477414E0, 6.16021097993053585195E0,
    7.40974269950448939160E0, 2.97886665372100240670E0,
)
_S = (
    2.26052863220117276590E0, 9.39603524938001434673E0,
    1.20489539808096656605E1, 1.70814450747565897222E1,
    9.60896809063285878198E0, 3.36907645100081516050E0,
)
# erf for |a| <= 1.
_T = (
    9.60497373987051638749E0, 9.00260197203842689217E1,
    2.23200534594684319226E3, 7.00332514112805075473E3,
    5.55923013010394962768E4,
)
_U = (
    3.35617141647503099647E1, 5.21357949780152679795E2,
    4.59432382970980127987E3, 2.26290000613890934246E4,
    4.92673942608635921086E4,
)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0]*x^N + ... + coef[N] by Horner's rule, in Cephes' order."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """``_polevl`` with a leading coefficient 1 that ``coef`` leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ratio(x: np.ndarray, w: np.ndarray, num, den) -> np.ndarray:
    """(w * polevl(x, num)) / p1evl(x, den), multiplied before dividing as
    in Cephes."""
    out = _polevl(x, num)
    out *= w
    out /= _p1evl(x, den)
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of a 1-D array of positive doubles that lie
    below 0.5 or at least 2 (see the module docstring)."""
    out = np.log(x, dtype=complex).real
    sub = np.flatnonzero(x < _DBL_MIN)  # clog rescales these first
    if sub.size:
        out[sub] = [math.log(v) for v in x[sub].tolist()]
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's ``exp`` of a 1-D array of doubles up to 709."""
    return np.exp(x, dtype=complex).real


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri`` of a 1-D array inside (0, 1).

    The central branch is evaluated over the whole array, and the tails
    (y0 <= e^-2 or y0 > 1 - e^-2, about 27% of uniforms) are gathered and
    patched in.
    """
    y = y0 - 0.5
    y2 = y * y
    x = _ratio(y2, y2, _P0, _Q0)
    x *= y
    x += y
    x *= _S2PI
    upper = y0 > 1.0 - _EXPM2
    tail = np.flatnonzero(upper | (y0 <= _EXPM2))
    if tail.size:
        upper = upper[tail]
        yt = y0[tail]
        yt = np.where(upper, 1.0 - yt, yt)
        xt = np.sqrt(-2.0 * _log(yt))
        x0 = xt - _log(xt) / xt
        z = 1.0 / xt
        # Q1 has a root at z = 0.1138 (x = 8.79), where P2/Q2 applies instead.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x1 = _ratio(z, z, _P1, _Q1)
        far = np.flatnonzero(xt >= 8.0)
        if far.size:
            x1[far] = _ratio(z[far], z[far], _P2, _Q2)
        x0 -= x1
        x[tail] = np.where(upper, x0, -x0)
    return x


def _ndtri_inplace(buf: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float64 array ``buf`` with its ``ndtri``,
    ``_QUANTILE_BLOCK`` elements at a time, and return it.

    Each block is checked before it is evaluated, so a value outside the
    open interval (0, 1) raises ``DomainError`` with the blocks before it
    already overwritten.  Every element goes through the same operations
    as in one ``_ndtri`` call over the whole buffer, so the bits are equal.

    Raises:
        DomainError: if any value is NaN, infinite, or outside (0, 1).
    """
    flat = buf.reshape(-1)  # a view, since buf is C-contiguous
    for a in range(0, flat.size, _QUANTILE_BLOCK):
        block = flat[a : a + _QUANTILE_BLOCK]
        if not np.all((block > 0.0) & (block < 1.0)):  # False for NaN too
            raise DomainError("p must lie strictly inside (0, 1)")
        block[:] = _ndtri(block)
    return buf


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` of a 1-D array without NaN, ``erf`` inlined for |a| < 1."""
    out = np.empty_like(a)
    small = np.abs(a) < 1.0
    s = a[small]
    s2 = s * s
    out[small] = 1.0 - _ratio(s2, s, _T, _U)
    with np.errstate(over="ignore"):
        under = a * a > _MAXLOG  # Cephes tests -a*a < -MAXLOG
    out[under] = np.where(a[under] < 0.0, 2.0, 0.0)
    mid = ~(small | under)
    b = a[mid]
    x = np.abs(b)
    e = _exp(-b * b)
    y = np.where(x < 8.0, _ratio(x, e, _P, _Q), _ratio(x, e, _R, _S))
    out[mid] = np.where(b < 0.0, 2.0 - y, y)
    return out


def _validate_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite (got NaN or infinity)")


def _match_input(value: np.ndarray):
    """A Python float for a scalar or 0-d input, else the array."""
    return float(value) if np.ndim(value) == 0 else value


def phi_kernel(x):
    """Gaussian kernel e^(-x^2/2); even, with range (0, 1] on finite input."""
    arr = np.asarray(x, dtype=float)
    _validate_finite(arr, "x")
    return _match_input(np.exp(-0.5 * arr * arr))


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) = (1/2)[1 + erf(x/sqrt(2))].

    Accepts +-inf (returning 1/0).  Evaluated as erfc(-x/sqrt(2))/2 so the
    lower tail keeps full relative accuracy instead of cancelling to 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("x must not be NaN")
    return _match_input(0.5 * _erfc((-arr / _SQRT2).ravel()).reshape(arr.shape))


def std_normal_pdf(x):
    """Normalized standard normal density phi_kernel(x)/sqrt(2*pi)."""
    arr = np.asarray(x, dtype=float)
    _validate_finite(arr, "x")
    return _match_input(np.exp(-0.5 * arr * arr) / _SQRT2PI)


def std_normal_quantile(p):
    """Inverse of the standard normal CDF, Cephes ``ndtri``.

    On the open uniforms the samplers feed it, |Phi(result) - p| <= 1e-14
    and the result is strictly increasing in p.

    Raises:
        DomainError: if any p is outside the open interval (0, 1).
    """
    # A fresh C-ordered copy, so the caller's array is never written.
    return _match_input(_ndtri_inplace(np.array(p, dtype=float, order="C")))
