"""Synthetic workloads (paper §6.2).

The paper could not replay its production trace either; it extracted
"salient characteristics... such as flow size distribution" and
generated matching synthetic traffic.  This package does the same:
:mod:`repro.traffic.distributions` holds inverse-CDF flow-size
distributions (a storage-backend mix plus the classic DCTCP ones),
which a scenario's message streams draw from by name
(``FlowSpec.message_sizes``).
"""

from repro.traffic.distributions import (
    FlowSizeDistribution,
    storage_cluster,
    web_search,
    data_mining,
)

__all__ = [
    "FlowSizeDistribution",
    "storage_cluster",
    "web_search",
    "data_mining",
]
