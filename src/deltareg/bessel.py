"""Bessel functions J0, Y0, J1, Y1, re-exported from `scipy.special` (Cephes).

They take and return floats or arrays.  `y0` and `y1` return -inf at 0 and nan
for negative arguments instead of raising; callers validate their own domains.
"""

from scipy.special import j0, j1, y0, y1

__all__ = ["j0", "y0", "j1", "y1"]
