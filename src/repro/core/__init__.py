"""The paper's contribution: JointSTL and OneShotSTL.

Public classes
--------------
:class:`JointSTL`
    Batch joint seasonal-trend decomposition solved with IRLS (Algorithm 1).
:class:`ModifiedJointSTL`
    Exact online reference of the modified JointSTL problem (Algorithm 2);
    O(M) per point, used as a correctness oracle and executable spec.
:class:`OneShotSTL`
    The online O(1)-per-point decomposition (Algorithms 4 + 5), including the
    seasonality-shift handling of Section 3.4 and the forecasting extension
    of Section 4.
:class:`FleetKernel`
    Columnar (struct-of-arrays) form of ``n`` OneShotSTL instances sharing
    one configuration: the whole fleet advances with a handful of array
    operations per point, bit-identical to the scalar path.
:func:`select_lambda`
    The paper's training-window procedure for choosing ``lambda``.
"""

from repro.core.fleet import FleetKernel
from repro.core.joint_stl import JointSTL
from repro.core.lambda_selection import DEFAULT_LAMBDA_GRID, select_lambda
from repro.core.modified_joint_stl import ModifiedJointSTL
from repro.core.nsigma import NSigma, NSigmaVerdict
from repro.core.online_system import (
    HALF_BANDWIDTH,
    ContributionWorkspace,
    point_contributions,
)
from repro.core.oneshotstl import OneShotSTL

__all__ = [
    "FleetKernel",
    "JointSTL",
    "ModifiedJointSTL",
    "NSigma",
    "NSigmaVerdict",
    "OneShotSTL",
    "select_lambda",
    "DEFAULT_LAMBDA_GRID",
    "HALF_BANDWIDTH",
    "ContributionWorkspace",
    "point_contributions",
]
