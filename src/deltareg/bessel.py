"""Bessel functions J0, Y0, J1, Y1 from `scipy.special` (Cephes), imported on first use.

Only the 2D studies need them, and `scipy.special` takes longer to import than
the rest of the package, so each function imports it when called; after the
first call that import is a lookup in `sys.modules`.  They take and return
floats or arrays.  `y0` and `y1` return -inf at 0 and nan for negative
arguments instead of raising; callers validate their own domains.
"""

__all__ = ["j0", "y0", "j1", "y1"]


def j0(x):
    from scipy.special import j0
    return j0(x)


def y0(x):
    from scipy.special import y0
    return y0(x)


def j1(x):
    from scipy.special import j1
    return j1(x)


def y1(x):
    from scipy.special import y1
    return y1(x)
