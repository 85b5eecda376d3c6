"""Exact ramification-break calculus for towers of degree-p extensions.

Piecewise-linear transition functions between upper and lower break
numbering, finite p-group arithmetic through power-commutator
presentations, break filtrations with their quotient identity, and
certificate-based planning of break sequences for infinite towers.
All arithmetic is exact rational; nothing here uses floating point.

The namespace is lazy: each public name imports its home module on first
access (PEP 562), so ``import ramify`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# public names by home module, in the order of __all__
_EXPORTS = {
    "errors": ("RamifyError", "InputError", "InfeasiblePlanError",
               "InconsistentPresentationError", "CapExceededError"),
    "ratio": ("format_rat", "parse_rat", "is_prime"),
    "herbrand": ("PLFunc", "identity_func", "psi_step", "compose", "invert", "tower_psi",
                 "tower_upper_breaks"),
    "pcgroup": ("PcPresentation", "PcGroup", "Subgroup", "ConsistencyResult",
                "consistency_check", "build_heisenberg", "build_tower_truncation",
                "shipped_truncations", "DEFAULT_CAP"),
    "filtration": ("RamFiltration", "CosetGroup", "ValidationReport", "quotient_filtration"),
    "planner": ("TowerPlan", "BreakSequence", "FeasibilityResult", "ClosedFormReport",
                "cyclic_break_admissible", "break_triple_feasible", "apf_plan",
                "closed_form_check", "nonapf_plan", "evaluate_plan", "compositum_merge",
                "repair_merge", "verdict"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
