"""Seeded workload generators: each workload is a list of `pseudosym` argv lists.

The generators share no code with the package under test.  The generator
formulas and the family conditions are restated here so that a change to the
program cannot change which tuples a workload measures.  Why each workload
exists is written up in NOTES.md.
"""

from __future__ import annotations

import itertools
import math
import random

ALPHA_FLAGS = ("--alpha1", "--alpha2", "--alpha3", "--alpha4", "--alpha21")

# The four alpha4 = 2 tuples with stored numerator and basis fixtures.
FAMILY_FIXTURES = ((13, 14, 6, 2, 3), (16, 20, 7, 2, 8), (17, 25, 4, 2, 10), (22, 13, 5, 2, 4))
ENGINE_PINNED = ((6, 6, 2, 4, 4), (16, 11, 3, 5, 8), (9, 5, 3, 3, 2))
LARGE_PINNED = (30, 40, 12, 2, 14)

# `oracle --max-level` for large_semigroup.  At level 10 the order-counting
# table and the three gap-set tables are of similar size, so the op weighs
# both uses of the semigroup layer.
ORACLE_LEVEL = 10
# Tuples drawn per large_semigroup run, one from each stratum.
LARGE_DRAW = 24

# Ops run untimed at every set-up, the same for every workload and seed.
WARMUP_TUPLES = ((13, 14, 6, 2, 3), (9, 5, 3, 3, 2))


def generators(t: tuple[int, ...]) -> tuple[int, int, int, int]:
    a1, a2, a3, a4, a21 = t
    return (
        a2 * a3 * (a4 - 1) + 1,
        a21 * a3 * a4 + (a1 - a21 - 1) * (a3 - 1) + a3,
        a1 * a4 + (a1 - a21 - 1) * (a2 - 1) * (a4 - 1) - a4 + 1,
        a1 * a2 * (a3 - 1) + a21 * (a2 - 1) + a2,
    )


def _box(r1, r2, r3, r4, r21, family: bool) -> list[tuple[int, ...]]:
    """Valid coprime tuples of a box; `family` adds conditions (1)-(4) and sortedness."""
    out = []
    for t in itertools.product(r1, r2, r3, r4, r21):
        a1, a2, a3, a4, a21 = t
        if a21 >= a1 - 1:
            continue
        n = generators(t)
        if math.gcd(*n) != 1:
            continue
        if family and not (
            a1 > a4 and a3 < a1 - a21 and a4 < a2 + a3 - 1 and a2 > a21 + 1
            and n[0] < n[1] < n[2] < n[3]
        ):
            continue
        out.append(t)
    return out


def family_box() -> list[tuple[int, ...]]:
    """alpha4 = 2, conditions (1)-(4), sorted, coprime, alpha1..alpha3 <= 10: 233 tuples."""
    return _box(range(2, 11), range(2, 11), range(2, 11), (2,), range(1, 10), True)


def engine_box() -> list[tuple[int, ...]]:
    """The out-of-family fuzz box with alpha4 in 3..5, unsorted allowed: 782 tuples."""
    return _box(range(3, 8), range(2, 7), range(2, 6), range(3, 6), range(1, 6), False)


def large_box() -> list[tuple[int, ...]]:
    """alpha4 = 2 family tuples with alpha1 20..32, alpha2 15..40, alpha3 4..12."""
    return _box(range(20, 33), range(15, 41), range(4, 13), (2,), range(1, 31), True)


def table_cells(t: tuple[int, ...]) -> int:
    """Size of the order table `verify` builds for t, estimated from the parameters.

    The table spans (level + 1) * max(n) cells, and the closed-form second
    series has degree max(k*a2, a2+a3-2), to which `verify` adds a margin of 5.
    """
    a1, a2, a3, _, a21 = t
    k = next((k for k in range(1, a3 + 1) if k * (a2 + 1) <= (k - 1) * a1 + (k + 1) * a21 + a3), a3)
    return (max(k * a2, a2 + a3 - 2) + 6) * max(generators(t))


def argv(command: str, t: tuple[int, ...], *extra: str) -> list[str]:
    out = [command]
    for flag, value in zip(ALPHA_FLAGS, t):
        out += [flag, str(value)]
    return out + list(extra)


def _large_draw(rng: random.Random) -> list[tuple[int, ...]]:
    """One tuple from each of LARGE_DRAW equal-count strata by table size.

    Tuples with a larger table than the pinned tuple are left out, so that the
    pinned tuple sets the run's peak memory and longest op whatever the seed;
    the rest are stratified so that every draw spans the same range of sizes.
    """
    cap = table_cells(LARGE_PINNED)
    pool = sorted(
        (cells, t) for cells, t in ((table_cells(t), t) for t in large_box())
        if t != LARGE_PINNED and cells <= cap
    )
    n = len(pool)
    return [pool[rng.randrange(i * n // LARGE_DRAW, (i + 1) * n // LARGE_DRAW)][1]
            for i in range(LARGE_DRAW)]


def ops(workload: str, seed: int) -> list[list[str]]:
    """The argv list of every op of one pass, in the seed's order."""
    rng = random.Random(seed)
    if workload == "family_sweep":
        out = [argv("verify", t) for t in family_box() + list(FAMILY_FIXTURES)]
    elif workload == "engine_offfamily":
        box = engine_box()
        out = [argv("verify", t) for t in box + [t for t in ENGINE_PINNED if t not in box]]
    elif workload == "large_semigroup":
        tuples = _large_draw(rng) + [LARGE_PINNED]
        out = [op for t in tuples
               for op in (argv("verify", t), argv("oracle", t, "--max-level", str(ORACLE_LEVEL)))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def warmup_ops() -> list[list[str]]:
    return [op for t in WARMUP_TUPLES
            for op in (argv("verify", t), argv("oracle", t, "--max-level", str(ORACLE_LEVEL)))]


WORKLOADS = ("family_sweep", "engine_offfamily", "large_semigroup")
