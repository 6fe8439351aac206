"""Registry-wide property tests (ISSUE 2 satellite).

For every registered scheme at P in {8, 32}:

* ``init_window(rank)`` only touches offsets below ``window_words``;
* the per-process handles satisfy the declared ``LockHandle`` /
  ``RWLockHandle`` protocol (and actually provide one acquire/release);
* the registry's parameter specs round-trip through ``Cluster.lock(**params)``.
"""

from __future__ import annotations

import pytest

from repro.api import Cluster, get_scheme, scheme_names
from repro.core.lock_base import LockHandle, RWLockHandle

PROCESS_COUNTS = (8, 32)
PROCS_PER_NODE = 4

#: Sample values (per parameter name) used when a parameter has no default;
#: chosen to be valid on every machine shape this test sweeps.
SAMPLE_VALUES = {
    "t_dc": 4,
    "t_l": (2, 2),
    "t_r": 16,
    "t_w": 4,
    "max_local_passes": 3,
    "home_rank": 1,
    "local_cap_us": 1.5,
    "remote_cap_us": 12.0,
    "min_backoff_us": 0.4,
    "max_backoff_us": 6.0,
}


def _sample_params(info):
    params = {}
    for spec in info.params:
        if spec.name in SAMPLE_VALUES:
            params[spec.name] = SAMPLE_VALUES[spec.name]
        elif spec.default is not None:
            params[spec.name] = spec.default
    return params


@pytest.mark.parametrize("procs", PROCESS_COUNTS)
@pytest.mark.parametrize("scheme", scheme_names())
class TestEverySchemeAtScale:
    def test_init_window_offsets_within_window(self, scheme, procs):
        cluster = Cluster(procs=procs, procs_per_node=PROCS_PER_NODE)
        info = get_scheme(scheme)
        spec = info.build(cluster.machine, **_sample_params(info))
        words = spec.window_words
        assert words >= 1
        for rank in range(procs):
            init = spec.init_window(rank)
            for offset, value in init.items():
                assert 0 <= offset < words, (
                    f"{scheme}: rank {rank} initializes offset {offset} outside "
                    f"its declared window of {words} words"
                )
                assert isinstance(value, int)

    def test_parameter_specs_round_trip_through_cluster_lock(self, scheme, procs):
        cluster = Cluster(procs=procs, procs_per_node=PROCS_PER_NODE)
        info = get_scheme(scheme)
        params = _sample_params(info)
        lock = cluster.lock(scheme, **params)
        assert lock.name == scheme
        assert lock.is_rw == info.rw
        for name, value in params.items():
            expected = info.param(name).coerce(value)
            # Specs expose their parameters under matching attribute names
            # (possibly post-processed, e.g. rma-rw normalizes t_l); only the
            # verbatim-stored ones are compared.
            if hasattr(lock.spec, name):
                assert getattr(lock.spec, name) == expected, (
                    f"{scheme}: parameter {name} did not round-trip"
                )


@pytest.mark.parametrize("procs", PROCESS_COUNTS)
@pytest.mark.parametrize("scheme", scheme_names(harness=True))
def test_handles_satisfy_declared_protocol(scheme, procs):
    """Handles implement the protocol their registration declares, live."""
    cluster = Cluster(procs=procs, procs_per_node=PROCS_PER_NODE)
    info = get_scheme(scheme)
    lock = cluster.lock(scheme, **_sample_params(info))
    session = cluster.session(lock)
    expected_type = RWLockHandle if info.rw else LockHandle
    observations = []

    async def program(ctx):
        handle = lock.make(ctx)
        ok = isinstance(handle, expected_type)
        await ctx.barrier()
        # Rank 0 exercises one full acquire/release cycle of each declared side.
        if ctx.rank == 0:
            if info.rw:
                async with handle.writing():
                    pass
                async with handle.reading():
                    pass
            else:
                async with handle.held():
                    pass
        await ctx.barrier()
        return ok

    result = session.run(program)
    observations.extend(result.returns)
    assert all(observations), f"{scheme}: handle does not satisfy {expected_type.__name__}"
