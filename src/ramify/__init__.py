"""Exact ramification-break calculus for towers of degree-p extensions.

Piecewise-linear transition functions between upper and lower break
numbering, finite p-group arithmetic through power-commutator
presentations, break filtrations with their quotient identity, and
certificate-based planning of break sequences for infinite towers.
All arithmetic is exact rational; nothing here uses floating point.
"""

from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InfeasiblePlanError,
    InputError,
    RamifyError,
)
from .filtration import CosetGroup, RamFiltration, ValidationReport, quotient_filtration
from .herbrand import (
    PLFunc,
    compose,
    identity_func,
    invert,
    psi_step,
    tower_psi,
    tower_upper_breaks,
)
from .pcgroup import (
    DEFAULT_CAP,
    ConsistencyResult,
    PcGroup,
    PcPresentation,
    Subgroup,
    build_heisenberg,
    build_tower_truncation,
    consistency_check,
    shipped_truncations,
)
from .planner import (
    BreakSequence,
    ClosedFormReport,
    FeasibilityResult,
    TowerPlan,
    apf_plan,
    closed_form_check,
    compositum_merge,
    cyclic_break_admissible,
    evaluate_plan,
    break_triple_feasible,
    nonapf_plan,
    repair_merge,
    verdict,
)
from .ratio import format_rat, is_prime, parse_rat

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RamifyError",
    "InputError",
    "InfeasiblePlanError",
    "InconsistentPresentationError",
    "CapExceededError",
    "format_rat",
    "parse_rat",
    "is_prime",
    "PLFunc",
    "identity_func",
    "psi_step",
    "compose",
    "invert",
    "tower_psi",
    "tower_upper_breaks",
    "PcPresentation",
    "PcGroup",
    "Subgroup",
    "ConsistencyResult",
    "consistency_check",
    "build_heisenberg",
    "build_tower_truncation",
    "shipped_truncations",
    "DEFAULT_CAP",
    "RamFiltration",
    "CosetGroup",
    "ValidationReport",
    "quotient_filtration",
    "TowerPlan",
    "BreakSequence",
    "FeasibilityResult",
    "ClosedFormReport",
    "cyclic_break_admissible",
    "break_triple_feasible",
    "apf_plan",
    "closed_form_check",
    "nonapf_plan",
    "evaluate_plan",
    "compositum_merge",
    "repair_merge",
    "verdict",
]
