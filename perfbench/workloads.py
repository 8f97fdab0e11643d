"""Seeded CLI invocations for each benchmark workload.

Every workload is a fixed list of `swansim` invocations whose numeric inputs
are drawn from the seed.  The amount of work does not depend on the seed
(step counts, resolutions and the coupling ratios that set run length are
fixed), so seeds change the inputs without changing what a run costs.

Floats are passed with repr(), so the CLI parses exactly the value the oracle
checks against.  This module imports nothing from swansim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# simulate: time span of every run, in periods
TRAJECTORY_PERIODS = 2.0
# classify: grid resolution; at 801 the grid work outweighs the import
REGION_RESOLUTION = 801
# sweep: coupling grid as multiples of omega0; point 5 is omega0 exactly
SWEEP_RATIO_MIN = 0.5
SWEEP_RATIO_STEP = 0.1
SWEEP_POINTS = 8
# validate at this |delta|/omega0 fails on the seed commit (see NOTES.md)
NEAR_CRITICAL_RATIO = 0.96


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv without --out, the inputs its oracle needs, and its expected exit code."""

    name: str
    argv: tuple[str, ...]
    inputs: dict
    expected_exit: int = 0
    ext: str = "csv"

    def full_argv(self, out_path: str) -> list[str]:
        return [*self.argv, f"--out={out_path}"]


def _invocation(name: str, command: str, inputs: dict, **kw) -> Invocation:
    """Invocation whose argv passes every non-None input as --key=repr(value).

    The --key=value form keeps argparse from reading a negative value as an option.
    """
    argv = [command]
    for key, value in inputs.items():
        if value is None:
            continue
        text = f"{value.real!r},{value.imag!r}" if isinstance(value, complex) else repr(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    return Invocation(name, tuple(argv), inputs, **kw)


def _unit_centre(rng: random.Random) -> tuple[float, float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(angle), math.sin(angle)


def _coupling(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """(omega0, delta) with |delta|/omega0 in [lo, hi] and a random sign."""
    omega0 = rng.uniform(0.8, 1.25)
    return omega0, rng.choice((1.0, -1.0)) * rng.uniform(lo, hi) * omega0


def trajectory(rng: random.Random) -> list[Invocation]:
    invs = []
    omega0, delta = _coupling(rng, 0.4, 0.7)
    p0, q0 = _unit_centre(rng)
    invs.append(_invocation("bounded", "simulate", dict(
        omega0=omega0, delta=delta, p0=p0, q0=q0, b0=None, periods=TRAJECTORY_PERIODS)))

    # G0 != I: initial uncertainty b0 inside the bounded region
    omega0, delta = _coupling(rng, 0.4, 0.7)
    p0, q0 = _unit_centre(rng)
    if delta > 0:
        b0 = complex(rng.uniform(-0.5, 0.5), delta / omega0 + rng.uniform(0.3, 0.8))
    else:
        radius = omega0 / (2.0 * abs(delta))
        offset = rng.uniform(0.0, 0.5) * radius
        angle = rng.uniform(0.0, 2.0 * math.pi)
        b0 = complex(offset * math.cos(angle), radius + offset * math.sin(angle))
    invs.append(_invocation("b0_bounded", "simulate", dict(
        omega0=omega0, delta=delta, p0=p0, q0=q0, b0=b0, periods=TRAJECTORY_PERIODS)))

    # supercritical: stops at the first sample over threshold and exits 3
    omega0, delta = _coupling(rng, 1.05, 1.2)
    p0, q0 = _unit_centre(rng)
    invs.append(_invocation("supercritical", "simulate", dict(
        omega0=omega0, delta=delta, p0=p0, q0=q0, b0=None, periods=TRAJECTORY_PERIODS), expected_exit=3))
    return invs


def sweep(rng: random.Random) -> list[Invocation]:
    # a power-of-two omega0 keeps delta_min + 5 * delta_step == omega0 exact
    omega0 = rng.choice((0.5, 1.0, 2.0))
    p0, q0 = _unit_centre(rng)
    d_min = SWEEP_RATIO_MIN * omega0
    d_step = SWEEP_RATIO_STEP * omega0
    # half a step of slack so the CLI's floor() yields exactly SWEEP_POINTS values
    d_max = d_min + (SWEEP_POINTS - 0.5) * d_step
    return [_invocation("sweep", "sweep", dict(
        omega0=omega0, p0=p0, q0=q0, delta_min=d_min, delta_max=d_max, delta_step=d_step))]


def region_map(rng: random.Random) -> list[Invocation]:
    invs = []
    for name, sign in (("half_plane", 1.0), ("circle", -1.0)):
        omega0 = rng.uniform(0.8, 1.25)
        delta = sign * rng.uniform(0.3, 0.9) * omega0
        if sign > 0:
            # bounded above Im b = delta / omega0
            re_range = (-2.0 + rng.uniform(-0.5, 0.5), 2.0 + rng.uniform(-0.5, 0.5))
            im_range = (0.05, 2.0 * delta / omega0 + rng.uniform(0.2, 0.6))
        else:
            # bounded inside the circle of this radius tangent to the real axis at 0
            radius = omega0 / (2.0 * abs(delta))
            re_range = (-1.5 * radius, 1.5 * radius * rng.uniform(0.9, 1.1))
            im_range = (0.05, (2.0 + rng.uniform(0.2, 0.6)) * radius)
        invs.append(_invocation(name, "classify", dict(
            omega0=omega0, delta=delta, re_min=re_range[0], re_max=re_range[1],
            im_min=im_range[0], im_max=im_range[1], resolution=REGION_RESOLUTION), ext="json"))
    return invs


def cross_check(rng: random.Random) -> list[Invocation]:
    invs = []
    for name, lo, hi in (("subcritical", 0.3, 0.8), ("supercritical", 1.05, 1.2)):
        omega0, delta = _coupling(rng, lo, hi)
        invs.append(_invocation(name, "validate", dict(omega0=omega0, delta=delta), ext="json"))
    # positive delta: its failure is the Riccati-vs-Moebius error and the order
    # estimate, whose size does not depend on omega0 (see NOTES.md for delta < 0)
    omega0 = rng.uniform(0.8, 1.25)
    invs.append(_invocation("near_critical", "validate",
                            dict(omega0=omega0, delta=NEAR_CRITICAL_RATIO * omega0), ext="json"))
    return invs


# why each workload exists is recorded in BENCHMARK.json and NOTES.md
WORKLOADS = {
    "trajectory": trajectory,
    "sweep": sweep,
    "region_map": region_map,
    "cross_check": cross_check,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for this seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
