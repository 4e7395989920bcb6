import itertools
import signal

import pytest

from spherical.core import GroupSpec


# No test should run past this many seconds; the slowest took 40 s on a
# slow 2-core host.  A test that does has hung (a cycle walk that lost its
# seen check circles forever), and is failed so that the run goes on.
TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        # pytest.fail raises a BaseException, which no `except Exception`
        # in the code under test can swallow
        pytest.fail(f"test still running after {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def q8_mul_table():
    """Cayley table of the quaternion group {1,-1,i,-i,j,-j,k,-k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(x, y):
        sx, x0 = (-1, x[1:]) if x.startswith("-") else (1, x)
        sy, y0 = (-1, y[1:]) if y.startswith("-") else (1, y)
        if x0 == "1":
            s, z = sx * sy, y0
        elif y0 == "1":
            s, z = sx * sy, x0
        elif x0 == y0:
            s, z = -sx * sy, "1"
        else:
            z = base[(x0, y0)]
            s = sx * sy * (-1 if z.startswith("-") else 1)
            z = z.lstrip("-")
        return ("" if s == 1 else "-") + z if z != "1" else ("1" if s == 1 else "-1")

    idx = {nm: i for i, nm in enumerate(names)}
    return [[idx[mul(x, y)] for y in names] for x in names]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def q8_spec():
    return GroupSpec("cayley", table=q8_mul_table())


def all_equations(spec, k):
    """Every k-tuple of constants over an enumerable group."""
    els = spec.elements()
    return itertools.product(els, repeat=k)
