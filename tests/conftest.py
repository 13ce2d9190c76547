"""Shared fixtures: the fully enumerated Sz(8) world, built once per session.

The heavyweight artifacts (chain, order census, partition report) are built
once; the partition report records its wall-clock build time so the
acceptance tests can assert its runtime budget without recomputing it.
"""

from time import perf_counter
from types import SimpleNamespace

import pytest

from szq.field import Field
from szq.group import candidate_generators, make_params
from szq.oracle import (
    StabilizerChain,
    empirical_order_stats,
    enumerate_group,
    verify_partition,
)
from szq.orderstats import spectrum_closed_form


@pytest.fixture(scope="session")
def field8():
    return Field(1)


@pytest.fixture(scope="session")
def params8():
    return make_params(1)


@pytest.fixture(scope="session")
def sz8(field8, params8):
    """Generators, chain, and census of Sz(8)."""
    table = StabilizerChain(params8, field8)
    stats = empirical_order_stats(table, spectrum_closed_form(params8))
    return SimpleNamespace(
        field=field8,
        params=params8,
        generators=table.generators,
        table=table,
        stats=stats,
    )


@pytest.fixture(scope="session")
def sz8_matrices(field8, params8):
    """Sz(8) as 4x4 matrices: the Mat4 closure of the candidate generators,
    as a set of entry tuples.  The oracle's carrier is the chain; tests
    rebuild each matrix with ``Mat4(field, key)`` to compare it with this
    reference."""
    return enumerate_group(candidate_generators(params8, field8), limit=params8.group_order)


@pytest.fixture(scope="session")
def sz8_partition(sz8):
    """Partition report for Sz(8) plus the seconds it took to compute."""
    t0 = perf_counter()
    report = verify_partition(sz8.table)
    return SimpleNamespace(report=report, seconds=perf_counter() - t0)
