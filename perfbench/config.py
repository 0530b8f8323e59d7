"""Fixed work per workload (stdlib only).

A run's op count is fixed by its length, ``ops_per_s * --seconds``,
so two runs with the same seed and length do exactly the same work and
their work counts can be compared. The rates were measured on a shared
2-vCPU Intel Xeon host whose speed drifts by up to 2x over tens of
minutes: at ``--seconds 20`` the ops of a run take 10-25 s there,
depending on the phase. ``batch_gbm`` and ``datavalue_tmc``, whose
figures spread most between seeds, get the longest runs. The tail
percentile follows from the op count (see ``tail_q``).
"""

from __future__ import annotations

from stats import tail_percentile

OPS_PER_S = {
    "batch_gbm": 4.0,        # 8-row explain_batch ops, 0.15-0.4 s each
    "serve_zipf": 500.0,     # HTTP requests, 0.6-1.6 ms each
    "datavalue_tmc": 7.5,    # tmc_shapley valuations, 0.07-0.2 s each
    "lineage_mixed": 5000.0,  # db ops, 0.07-0.15 ms each with the shadow
                              # upkeep between ops
}
MIN_OPS = 20  # the fewest that still leave 10 samples beyond the median

# The tail is the highest rung of stats.PERCENTILE_LADDER with at least
# 10 ops beyond it, but no higher than these caps. On lineage_mixed
# p99.9 and p99.99 rest on the few ops that a burst of hypervisor steal
# or a collector pause happens to hit, not on its writes (10% of ops).
# serve_zipf is not capped: its p99.9 lies in the cache misses (about
# 17% of requests). Its p90 would lie near the misses' 40th percentile,
# where a shared host's fast and slow phases (misses near 3.9 ms and
# 5.8 ms there) meet: over 17 runs of 10 000 requests on a shared 2-vCPU
# Xeon, the quartile spread of p90 was 0.25 of its median, of p99.9 0.07.
TAIL_CAP = {"lineage_mixed": 99}

# Work counts of these workloads repeat exactly for a seed. Those of
# serve_zipf also depend on the server's clock (the cache TTL, the
# ladder's latency signal), so its differences are reported, not failed.
DETERMINISTIC = ("batch_gbm", "datavalue_tmc", "lineage_mixed")

# A seed kept out of tuning: confirm a claimed gain on it, after the
# change is written, as well as on the seeds used while writing it.
HELD_OUT_SEED = 7919


def n_ops(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(OPS_PER_S[workload] * seconds))


def tail_q(workload: str, n: int) -> float:
    """The tail percentile of a run of ``n`` ops of ``workload``."""
    return min(tail_percentile(n), TAIL_CAP.get(workload, 100))
