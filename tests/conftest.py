import pytest

from quadcover import sheaves
from quadcover.covers import SixTuple

REFERENCE = {
    "U1": "1,0,1,0,0,1,2,1,2,1,4,2",
    "U2": "1,0,1,0,0,1,2,1,4,2,2,1",
    "U3": "1,0,1,0,0,1,4,1,3,2,1,1",
    "U4": "1,0,1,0,0,1,1,1,0,3,2,0",
}


@pytest.fixture(autouse=True)
def cold_tuple_memos():
    """Every test starts with an empty per-tuple memo, so that what it counts
    (table builds, evaluations, cache misses) does not depend on the tests
    that ran before it."""
    sheaves._evaluation.cache_clear()


@pytest.fixture(scope="session")
def u1():
    return SixTuple.parse(REFERENCE["U1"])


@pytest.fixture(scope="session")
def u2():
    return SixTuple.parse(REFERENCE["U2"])


@pytest.fixture(scope="session")
def u3():
    return SixTuple.parse(REFERENCE["U3"])


@pytest.fixture(scope="session")
def u3_shifted(u3):
    """U3 with 5 * 2^60 added to every residue: the same residues mod 5,
    held in int64 but far outside 0..4."""
    return SixTuple(*((x + (5 << 60), y + (5 << 60)) for x, y in u3))


@pytest.fixture(scope="session")
def u4():
    return SixTuple.parse(REFERENCE["U4"])


@pytest.fixture(scope="session")
def representatives(u1, u2, u3, u4):
    return {"U1": u1, "U2": u2, "U3": u3, "U4": u4}
