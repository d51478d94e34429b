"""Filtering profiles: block geometry, group sizes, shrinkage strength."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StageParams:
    """Geometry and strength parameters for one filtering stage."""

    block: tuple = (4, 4, 4)
    max_group: int = 16
    search_radius: tuple = (5, 5, 5)
    step: int = 3
    threshold: float = 2.7  # hard-threshold multiplier; unused by Wiener

    def __post_init__(self):
        if len(self.block) != 3 or any(int(e) != e or e < 2 for e in self.block):
            raise ValueError("block edges must be integers >= 2")
        if len(self.search_radius) != 3 or any(r < 1 for r in self.search_radius):
            raise ValueError("search radii must be positive")
        if self.max_group < 1:
            raise ValueError("max_group must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.step > min(self.block):  # reference blocks must tile the volume
            raise ValueError("step must not exceed the smallest block edge")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")


def _default_ht() -> StageParams:
    return StageParams(max_group=16)


def _default_wiener() -> StageParams:
    return StageParams(max_group=32)


@dataclass(frozen=True)
class Bm4dProfile:
    """Two-stage parameter set; the defaults are the standard profile."""

    ht: StageParams = field(default_factory=_default_ht)
    wiener: StageParams = field(default_factory=_default_wiener)
