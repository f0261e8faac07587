import itertools

import pytest

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


@pytest.fixture(scope="session")
def engine_bases():
    """Computed standard bases for the fixture tuples, shared across modules."""
    from pseudosym.pipeline import engine_basis

    return {params: engine_basis(params) for params, _ in ALL_FIXTURE_TUPLES}
