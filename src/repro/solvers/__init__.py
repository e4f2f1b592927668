"""Linear-algebra substrate for the OneShotSTL reproduction.

The paper's online algorithm is, at its core, an incremental symmetric
Doolittle (LDL^T) factorization of a growing banded linear system.  This
subpackage provides:

* :mod:`repro.solvers.ldlt` -- batch symmetric Doolittle factorization for
  dense and banded matrices (paper Algorithm 3), used by the batch JointSTL
  model and the Algorithm-2 reference implementation.
* :mod:`repro.solvers.incremental_ldlt` -- the O(1)-per-append incremental
  banded LDL^T solver (a generalization of the paper's OnlineDoolittle,
  Algorithm 4).
* :mod:`repro.solvers.batched_ldlt` -- the struct-of-arrays batched form of
  the same solver: the ``I`` IRLS-iteration systems of each of ``n`` series
  in one stacked state, any slab of iterations advanced with one array
  operation per elimination step, bit-for-bit equal to running ``I x n``
  scalar solvers.
"""

from repro.solvers.ldlt import (
    BandedLDLT,
    ldlt_factor,
    ldlt_solve,
    solve_symmetric,
)
from repro.solvers.incremental_ldlt import IncrementalBandedLDLT
from repro.solvers.batched_ldlt import BatchedIncrementalLDLT

__all__ = [
    "BandedLDLT",
    "BatchedIncrementalLDLT",
    "IncrementalBandedLDLT",
    "ldlt_factor",
    "ldlt_solve",
    "solve_symmetric",
]
