import pytest

from pseudosym import PseudoSymmetricParams

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


@pytest.fixture(scope="session")
def engine_bases():
    """Computed standard bases for the fixture tuples, shared across modules."""
    from pseudosym.pipeline import engine_basis

    return {params: engine_basis(params) for params, _ in ALL_FIXTURE_TUPLES}
