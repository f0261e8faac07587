import argparse
import itertools
import multiprocessing
import os

import pytest
from hypothesis import strategies as st

from pseudosym import PseudoSymmetricParams
from pseudosym.semigroup import check_conditions

# The regression tuples used throughout the suite, as (params, basis size).
TUPLE_41 = PseudoSymmetricParams(16, 20, 7, 2, 8)
TUPLE_42 = PseudoSymmetricParams(22, 13, 5, 2, 4)
TUPLE_43 = PseudoSymmetricParams(17, 25, 4, 2, 10)
TUPLE_44 = PseudoSymmetricParams(13, 14, 6, 2, 3)
TUPLE_A4_3 = PseudoSymmetricParams(9, 5, 3, 3, 2)
TUPLE_A4_5 = PseudoSymmetricParams(16, 11, 3, 5, 8)

FAMILY_TUPLES = [TUPLE_41, TUPLE_42, TUPLE_43, TUPLE_44]
ALL_FIXTURE_TUPLES = [
    (TUPLE_41, 7),
    (TUPLE_42, 8),
    (TUPLE_43, 9),
    (TUPLE_44, 10),
    (TUPLE_A4_3, 10),
    (TUPLE_A4_5, 14),
]

# The off-family box: alpha1 3..7, alpha2 2..6, alpha3 2..5, alpha4 3..5,
# alpha21 1..5, coprime generators in any order.
ENGINE_BOX_RANGES = (range(3, 8), range(2, 7), range(2, 6), range(3, 6), range(1, 6))


def engine_box(ranges=ENGINE_BOX_RANGES) -> list[PseudoSymmetricParams]:
    """The coprime tuples of a box (the off-family one by default), sorted generators or not."""
    return [
        PseudoSymmetricParams(*t)
        for t in itertools.product(*ranges)
        if t[4] < t[0] - 1 and check_conditions(PseudoSymmetricParams(*t))["coprime"]
    ]


# The alpha4 = 2 family box of the benchmark's family_sweep: alpha1..3 <= 10.
FAMILY_BOX_RANGES = (range(2, 11), range(2, 11), range(2, 11), (2,), range(1, 10))
FAMILY_CONDITIONS = ("c1", "c2", "c3", "c4", "sorted", "coprime")


def in_family(t: tuple[int, ...]) -> bool:
    """Whether t is a valid tuple with conditions (1)-(4) and sorted coprime generators."""
    if t[4] >= t[0] - 1:
        return False
    conds = check_conditions(PseudoSymmetricParams(*t))
    return all(conds[c] for c in FAMILY_CONDITIONS)


def family_box(ranges=FAMILY_BOX_RANGES) -> list[PseudoSymmetricParams]:
    """The tuples of a box (the family_sweep one by default) that `in_family` keeps."""
    return [PseudoSymmetricParams(*t) for t in itertools.product(*ranges) if in_family(t)]


def map_box(description: str, make_box, check, chunksize: int, argv=None) -> tuple[list, list]:
    """A box script's run: parse its `--jobs` option, then `check` every tuple of `make_box()`.

    `--jobs` is 1 by default and at most the CPU count; more than one job
    maps over a spawn pool in chunks of `chunksize`.  Returns the box and
    the results in box order.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must be between 1 and the CPU count, got {args.jobs}")
    box = make_box()
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            return box, pool.map(check, box, chunksize=chunksize)
    return box, list(map(check, box))


@st.composite
def monomial_lists(draw, max_size=10):
    """Four-exponent monomials with entries 0..3, so that divisibility is common,
    then repeats of some of them and possibly the unit row (0, 0, 0, 0)."""
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=max_size))
    if monos:
        monos += draw(st.lists(st.sampled_from(monos), max_size=4))
    return monos + draw(st.lists(st.just((0, 0, 0, 0)), max_size=1))


@pytest.fixture(scope="session")
def engine_bases():
    """Computed standard bases for the fixture tuples, shared across modules."""
    from pseudosym.pipeline import engine_basis
    from pseudosym.toric import toric_generators

    return {params: engine_basis(toric_generators(params)) for params, _ in ALL_FIXTURE_TUPLES}
