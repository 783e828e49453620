"""Integer elimination: the fraction-free Bareiss kernels of `_bareiss_py`.

`BACKEND` names the implementation; it is recorded with benchmark runs.
"""

from ._bareiss_py import det_int, echelon_int, rank_int

BACKEND = "python"

__all__ = ["echelon_int", "rank_int", "det_int", "BACKEND"]
