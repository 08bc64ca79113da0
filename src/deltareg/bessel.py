"""Bessel functions J0, Y0, J1, Y1 from `scipy.special` (Cephes), imported on first use.

Only the 2D studies need them, and `scipy.special` takes longer to import than
the rest of the package.  Each name starts as a stand-in: the first call of any
of them imports `scipy.special` and rebinds all four names to its functions.
They take and return floats or arrays.  `y0` and `y1` return -inf at 0 and nan
for negative arguments instead of raising; callers validate their own domains.
"""

__all__ = ["j0", "y0", "j1", "y1"]


def _stand_in(name):
    def call(*args, **kwargs):
        import scipy.special

        for fn in __all__:
            if globals()[fn] is _STAND_INS[fn]:  # a name replaced from outside stays so
                globals()[fn] = getattr(scipy.special, fn)
        return getattr(scipy.special, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


_STAND_INS = {name: _stand_in(name) for name in __all__}
j0, y0, j1, y1 = _STAND_INS.values()
