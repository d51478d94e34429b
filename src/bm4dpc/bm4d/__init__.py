"""Collaborative nonlocal filtering under correlated noise.

Grouping of similar cubic blocks, separable orthonormal 4D transforms,
PSD-exact coefficient variances, two-stage shrinkage by a gain, and the
multichannel driver that filters every principal component with block
positions matched once on the first. The driver is the one entry
point: it alone checks the block geometry, and it checks the PSD dims
for any caller. The transforms, the variance helpers, the stage and
the shrinkage stay importable from `transforms`, `variance` and
`engine`.
"""

from .engine import bm4d_multichannel

__all__ = ["bm4d_multichannel"]
