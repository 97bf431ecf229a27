"""Generalized Collatz triplet-map workbench."""

from gcollatz.core import (
    Decomposition,
    DomainError,
    InternalError,
    Triplet,
    decompose,
    iterate,
    report_json,
    residue,
    s_count,
    s_indicator,
    step,
    validate_triplet,
)
from gcollatz.family import (
    AttractorSet,
    Cycle,
    VerificationError,
    attractor_set,
    exceptional_registry,
    identify_pq,
    make_pq,
    trivial_cycle_general,
    trivial_cycle_pq,
)
from gcollatz.dynamics import (
    ScanReport,
    Trajectory,
    descent_time,
    detect_cycle,
    find_cycles_in_range,
    max_stopping_scan,
    total_stopping_time,
    trajectory,
    verify_range,
)
from gcollatz.identities import (
    IdentityReport,
    PreconditionError,
    check_identity,
    thm31_iterate,
    thm31_sigma,
    thm31_step,
    thm32_iterate,
    thm33_iterate,
    thm33_iterate_2dm1,
)
from gcollatz.invgraph import (
    InverseGraph,
    build_inverse_graph,
    export_dot,
    export_json,
    parse_json,
    preimages,
)

__version__ = "0.1.0"
