"""Shared fixtures: the fully enumerated Sz(8) world, built once per session.

The heavyweight artifacts (closure table, order census, partition report)
record their wall-clock build times so the acceptance tests can assert the
runtime budgets without recomputing anything.
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
    """Generators, closure table, and census of Sz(8), with build timings."""
    t0 = perf_counter()
    table = StabilizerChain(params8, field8)
    closure_seconds = perf_counter() - t0
    t0 = perf_counter()
    stats = empirical_order_stats(table, spectrum_closed_form(params8))
    census_seconds = perf_counter() - t0
    return SimpleNamespace(
        field=field8,
        params=params8,
        generators=table.generators,
        table=table,
        stats=stats,
        closure_seconds=closure_seconds,
        census_seconds=census_seconds,
    )


@pytest.fixture(scope="session")
def sz8_matrices(field8, params8):
    """Sz(8) as 4x4 matrices: the Mat4 closure of the candidate generators,
    keyed by entry tuples.  The oracle's own table is a permutation table;
    this one is the matrix reference tests compare it with."""
    return enumerate_group(candidate_generators(params8, field8), limit=params8.group_order)


@pytest.fixture(scope="session")
def sz8_partition(sz8):
    """Partition report for Sz(8) plus the seconds it took to compute."""
    t0 = perf_counter()
    report = verify_partition(sz8.table)
    return SimpleNamespace(report=report, seconds=perf_counter() - t0)
