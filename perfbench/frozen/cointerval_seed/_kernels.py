"""Pure-Python rank kernels only (the frozen copy carries no compiled kernel)."""

from . import _kernels_py

rank_mod = _kernels_py.rank_mod
rank_bareiss = _kernels_py.rank_bareiss
nullspace_rational = _kernels_py.nullspace_rational
