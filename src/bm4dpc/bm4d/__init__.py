"""Collaborative nonlocal filtering under correlated noise.

Grouping of similar cubic blocks, separable orthonormal 4D transforms,
PSD-exact coefficient variances, two-stage shrinkage, and the
multichannel driver that filters every principal component with block
positions matched once on the first.
"""

from .engine import bm4d_multichannel, bm4d_stage, wiener_shrink
from .profile import Bm4dProfile, StageParams
from .transforms import group_inverse, group_transform, haar_matrix
from .variance import coeff_variances, fold_psd

__all__ = [
    "Bm4dProfile",
    "StageParams",
    "bm4d_multichannel",
    "bm4d_stage",
    "coeff_variances",
    "fold_psd",
    "group_inverse",
    "group_transform",
    "haar_matrix",
    "wiener_shrink",
]
