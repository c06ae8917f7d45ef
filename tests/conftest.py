"""Shared fixtures: the expensive all-degree caches are session scoped so
the acceptance suite and the unit tests build them once, and every test
starts with an empty (qT^2 - 1) factorisation cache."""
import pytest

from fwezeta import EnumeratorContext, analysis, build_extremal, compute_zeta

ALL_DEGREES = list(range(12, 197, 8))


@pytest.fixture(scope="session")
def all_extremals():
    return {n: build_extremal(n) for n in ALL_DEGREES}


@pytest.fixture(scope="session")
def all_zetas(all_extremals):
    return {n: compute_zeta(EnumeratorContext(c.expanded, 2))
            for n, c in all_extremals.items()}


@pytest.fixture(autouse=True)
def cold_factorisation():
    # the cache matches P by value, so without this a test that counts
    # divisions would find the last test's P in it
    analysis._factorisation.cache_clear()
