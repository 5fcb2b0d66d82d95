"""Virtual network embedding for dataflow applications on wireless mesh substrates.

The package maps directed graphs of nano-services and channels onto a shared
substrate of compute nodes and lossy links, routing each channel with anypath
(multi-receiver broadcast) forwarding and pricing routes by expected anypath
transmission time.
"""

from .anypath import (
    AnypathRouteTable,
    route_closure,
    route_table,
)
from .embedder import (
    ChannelRoute,
    Coefficients,
    Embedding,
    EmbeddingError,
    NoFeasiblePathError,
    NoSuitableNodeError,
    embed,
    pair_quality_revenue,
    select_max_pdr,
    select_min_links,
)
from .metrics import (
    MetricsReport,
    cost,
    metrics_report,
    revenue,
)
from .netmodel import (
    Channel,
    NanoService,
    SubstrateLink,
    SubstrateNetwork,
    SubstrateNode,
    VirtualRequest,
    fits,
    reserve_channel,
    reserve_service,
    rollback,
    validate_substrate,
)
from .scenario import (
    GeneratorConfig,
    SimulationConfig,
    SimulationResults,
    example_fixture,
    generate_request,
    run_simulation,
    simulation_substrate,
)
from .windowing import (
    process_window,
    request_quality_revenue,
)

__version__ = "0.1.0"
