"""scipy's Radau IIA with its dense LU calls made straight to LAPACK.

The tight-Radau reference tests spend about a third of each step in the
argument checks and batch dispatch of ``lu_factor`` and ``lu_solve``, on
1x1 and 2x2 systems.  The same getrf/getrs routines run on the same arrays,
so every digit is unchanged; a non-finite array still goes through scipy's
checked path and raises the same ``ValueError``.  The package itself never
steps with Radau, so this class lives with the tests that use it as their
reference.
"""

import warnings

import numpy as np
from scipy.integrate import Radau
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import get_lapack_funcs

# real and complex getrf/getrs, keyed by dtype character
_GETRF = {k: get_lapack_funcs(("getrf",), (np.zeros(1, dtype=k),))[0] for k in "dD"}
_GETRS = {k: get_lapack_funcs(("getrs",), (np.zeros(1, dtype=k),))[0] for k in "dD"}


class LapackRadau(Radau):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.J, np.ndarray):
            return  # sparse Jacobians keep scipy's splu path

        def lu(A):
            self.nlu += 1
            if not np.isfinite(A).all():
                return lu_factor(A, overwrite_a=True)
            lu_, piv, info = _GETRF[A.dtype.char](A, overwrite_a=True)
            if info > 0:
                warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                              LinAlgWarning, stacklevel=2)
            return lu_, piv

        def solve_lu(LU, b):
            if not np.isfinite(b).all():
                return lu_solve(LU, b, overwrite_b=True)
            x, _info = _GETRS[LU[0].dtype.char](LU[0], LU[1], b, overwrite_b=True)
            return x

        self.lu = lu
        self.solve_lu = solve_lu
