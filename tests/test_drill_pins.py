"""Every flavour of the cluster and overload drill suites, pinned.

Seed 2 of each flavour, run once, and its whole ``summary()`` line kept
as a literal.  The front-end flavours depend on the brownout shed
fractions and hysteresis and the per-class retry budget, and the
cluster flavours on the retry router's breakers, per-round refill and
epoch-refresh bound; a change to any of those constants moves a count
here.
"""

import pytest

from repro.faults import Drill, DrillConfig

PINNED = {
    ("cluster", "node_death"):
        "seed=2 cluster flavor=node_death event_txn=14 victim=0 offered=18 "
        "acked=18 reexecuted=0 stale_rejections=1 retries=4 "
        "amplification=1.22 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=2 migrations=0 recovery_rounds=1 — ok",
    ("cluster", "false_positive"):
        "seed=2 cluster flavor=false_positive event_txn=14 victim=0 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=0 retries=0 "
        "amplification=1.00 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=2 migrations=0 recovery_rounds=0 — ok",
    ("cluster", "hb_loss_storm"):
        "seed=2 cluster flavor=hb_loss_storm event_txn=14 victim=0 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=0 retries=0 "
        "amplification=1.00 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=0 recovery_rounds=0 — ok",
    ("cluster", "link_partition"):
        "seed=2 cluster flavor=link_partition event_txn=14 victim=0 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=0 retries=0 "
        "amplification=1.00 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=0 recovery_rounds=0 — ok",
    ("cluster", "stale_epoch"):
        "seed=2 cluster flavor=stale_epoch event_txn=14 victim=0 offered=18 "
        "acked=18 reexecuted=0 stale_rejections=1 retries=1 "
        "amplification=1.06 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=0 recovery_rounds=0 — ok",
    ("cluster", "migration_live"):
        "seed=2 cluster flavor=migration_live event_txn=14 victim=0 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=1 retries=1 "
        "amplification=1.06 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=1 recovery_rounds=0 "
        "unavailability_ns=3044.80 — ok",
    ("cluster", "migration_src_death"):
        "seed=2 cluster flavor=migration_src_death event_txn=14 victim=0 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=1 retries=4 "
        "amplification=1.22 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=2 migrations=1 recovery_rounds=1 — ok",
    ("cluster", "migration_dst_death"):
        "seed=2 cluster flavor=migration_dst_death event_txn=14 victim=1 "
        "offered=18 acked=18 reexecuted=0 stale_rejections=1 retries=3 "
        "amplification=1.17 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=1 migrations=1 recovery_rounds=1 — ok",
    ("cluster", "clean"):
        "seed=2 cluster flavor=clean event_txn=14 victim=0 offered=18 "
        "acked=18 reexecuted=0 stale_rejections=0 retries=0 "
        "amplification=1.00 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=0 recovery_rounds=0 — ok",
    ("overload", "retry_storm_failover"):
        "seed=2 overload flavor=retry_storm_failover event_txn=1 victim=1 "
        "offered=14 acked=14 reexecuted=0 stale_rejections=1 retries=3 "
        "amplification=1.21 breakers={'opened': 2, 'half_opened': 2, "
        "'reclosed': 2} failovers=1 migrations=0 recovery_rounds=2 — ok",
    ("overload", "flash_crowd"):
        "seed=2 overload flavor=flash_crowd offered=426 acked=309 shed=117 "
        "retries=57 retries_denied=112 amplification=1.13 "
        "pre_goodput=1.00 post_goodput=1.00 — ok",
    ("overload", "slow_client_storm"):
        "seed=2 overload flavor=slow_client_storm offered=509 acked=463 "
        "shed=46 retries=92 retries_denied=45 amplification=1.18 "
        "pre_goodput=1.00 post_goodput=1.00 — ok",
    ("overload", "migration_under_load"):
        "seed=2 overload flavor=migration_under_load event_txn=1 victim=1 "
        "offered=14 acked=14 reexecuted=0 stale_rejections=1 retries=1 "
        "amplification=1.07 breakers={'opened': 0, 'half_opened': 0, "
        "'reclosed': 0} failovers=0 migrations=1 recovery_rounds=0 "
        "unavailability_ns=3006.40 — ok",
}


@pytest.mark.drill
@pytest.mark.parametrize("suite,flavor", sorted(PINNED))
def test_flavor_summary_is_pinned(suite, flavor):
    result = Drill(DrillConfig(suite, seed=2, flavor=flavor)).run()
    assert result.summary() == PINNED[suite, flavor]
