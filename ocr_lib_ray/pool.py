"""Sizing that tracks the cluster: its CPU count and actor-pool bounds.

A fixed ``concurrency=(1, 4)`` caps a stateful stage at 4 actors no
matter how many nodes the job runs on — correct on a laptop, a 8× waste
on a 32-core box and a scale bug on a 256-node cluster.  Stages default
to these autoscaling bounds instead; callers with a measured reason
(e.g. a giant-page pool deliberately kept small) still pass explicit
bounds.
"""

from __future__ import annotations


def cluster_cpus() -> int:
    """The Ray cluster's CPUs (``ray.cluster_resources()["CPU"]``), and 1
    when Ray has not started or the cluster has no CPU resource — the
    fallback Ray Data's own read-width estimate uses.  The one CPU count
    behind read widths (``sources.tables``), the exchange's task waves
    (``bucket_tasks._pack_groups``) and actor-pool bounds."""
    import ray

    try:
        resources = ray.cluster_resources()
    except ray.exceptions.RaySystemError:  # Ray has not started
        return 1
    return max(1, int(resources.get("CPU", 1)))


def autoscale_pool(lo: int = 1, cap: int | None = None) -> tuple:
    """(lo, hi) actor-pool bounds with hi = cluster CPUs (min 2).

    ``cap`` bounds hi for stages that should never own the whole node.
    Reads cluster size at pipeline-build time; Ray's autoscaling pool
    only creates actors the backlog needs, so a generous hi costs
    nothing on small inputs.
    """
    hi = max(2, cluster_cpus())
    if cap is not None:
        hi = min(hi, cap)
    return (lo, hi)
