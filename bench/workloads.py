"""The benchmark's workloads: what each one generates and how it is run.

A workload seed `s` (the `--seed` argument) shifts the noise seed of the
library workloads and the `bm4dpc --seed` of the CLI workload by `s`, so
`--seed 0` reproduces the inputs named in bench/README.md.

`large-volume` runs only by hand: one repeat takes about 45 s, so within the
time allowed for all benchmark runs it could give one sample per run, and
BENCHMARK.json leaves it out (bench/README.md says more).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "library": denoise_bm4dpc call; "cli": run_cli
    dims: tuple
    shells: tuple        # ((b-value, volume count), ...)
    colored: bool        # colored (DoG kernel) or white noise
    base_seed: int
    threads: int
    min_gain_db: float   # quality floor on the b=1000 PSNR gain

    @property
    def volumes(self) -> int:
        return sum(count for _, count in self.shells)

    @property
    def voxel_volumes(self) -> int:
        m, n, o = self.dims
        return m * n * o * self.volumes

    def input_seed(self, seed: int) -> int:
        return self.base_seed + seed

    def shells_arg(self) -> str:
        return ",".join(f"{b:g}:{count}" for b, count in self.shells)


NOISE_LEVEL = 0.05
MAX_FA_RMSE_RATIO = 0.5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate-colored",
            kind="library",
            dims=(32, 32, 16),
            shells=((0.0, 3), (1000.0, 15), (2000.0, 15)),
            colored=True,
            base_seed=1,
            threads=1,
            min_gain_db=10.0,
        ),
        Workload(
            name="large-volume",
            kind="library",
            dims=(64, 64, 32),
            shells=((0.0, 2), (1000.0, 7), (2000.0, 7)),
            colored=False,
            base_seed=2,
            threads=1,
            min_gain_db=8.0,
        ),
        Workload(
            name="cli-many-volumes",
            kind="cli",
            dims=(32, 32, 16),
            shells=((0.0, 6), (1000.0, 45), (2000.0, 45)),
            colored=True,
            base_seed=3,
            threads=2,
            min_gain_db=10.0,
        ),
    )
}
