"""Bottleneck-structure analysis for max-min fair networks.

Build the structure with ``gradient_graph``, quantify perturbation ripple
effects with ``forward_grad``, place new flows with ``max_rate_path``, plan
traffic shaping with ``accelerate_flow``, and size spine capacity with
``taper_fold``. ``oracle`` holds the independent brute-force checks.
"""
from ._kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .errors import (
    AlreadyFoldedError,
    CapacityError,
    DuplicateIdError,
    DuplicateShaperError,
    MissingEndpointsError,
    NetworkFormatError,
    PlanError,
    QtbsError,
    ReservedIdError,
    RoutingError,
    SolverError,
    UnknownLinkError,
    UnknownVertexError,
    UnreachableError,
)
from .gradients import GradientResult, Perturbation, forward_grad, gradient_bound
from .metrics import jain_index
from .model import (
    EPS,
    Flow,
    Link,
    Network,
    PROBE_FLOW_ID,
    Violation,
    parse_network,
    serialize_network,
    to_document,
    validate,
)
from .oracle import OracleSolution, fd_gradient, random_network, suggest_delta, waterfill
from .planner import (
    ShapingAction,
    ShapingPlan,
    TaperReport,
    accelerate_flow,
    apply_plan,
    shaper_link_id,
    taper_fold,
)
from .routing import RoutePath, max_rate_path, min_hop_path, rate_if_routed
from .solver import (
    BottleneckSolution,
    GradientGraph,
    flow_levels,
    gradient_graph,
    region_of_influence,
)
from .export import dot_graph

__version__ = "0.1.0"

__all__ = [
    "AlreadyFoldedError",
    "BottleneckSolution",
    "CapacityError",
    "DuplicateIdError",
    "DuplicateShaperError",
    "EPS",
    "Flow",
    "GradientGraph",
    "GradientResult",
    "KERNEL_IMPLEMENTATION",
    "Link",
    "MissingEndpointsError",
    "Network",
    "NetworkFormatError",
    "OracleSolution",
    "PROBE_FLOW_ID",
    "Perturbation",
    "PlanError",
    "QtbsError",
    "ReservedIdError",
    "RoutePath",
    "RoutingError",
    "ShapingAction",
    "ShapingPlan",
    "SolverError",
    "TaperReport",
    "UnknownLinkError",
    "UnknownVertexError",
    "UnreachableError",
    "Violation",
    "accelerate_flow",
    "apply_plan",
    "dot_graph",
    "fd_gradient",
    "flow_levels",
    "forward_grad",
    "gradient_bound",
    "gradient_graph",
    "jain_index",
    "max_rate_path",
    "min_hop_path",
    "parse_network",
    "random_network",
    "rate_if_routed",
    "region_of_influence",
    "serialize_network",
    "shaper_link_id",
    "suggest_delta",
    "taper_fold",
    "to_document",
    "validate",
    "waterfill",
]
