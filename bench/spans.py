"""Span recorders wrapped around ramify's coarse entry points.

Each wrapped call records (name, start, end, parent, size) in an in-memory
list; nothing is written until the benchmark ends.  Functions are wrapped
where the calling module binds them (``ramify.cli.evaluate_plan``,
``ramify.planner.tower_psi``, ``ramify.filtration.invert``, ...) and methods
on their class, so every call site of a layer goes through one recorder.
The package's own files are never edited.  The layer of a span is the part
of its name before the first dot; a layer's self time is its spans' time
minus the time of the spans nested directly inside them.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, size]
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapped)

    def wrap(self, name: str, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(fn, classmethod):
            wrapped = classmethod(self.wrap(name, fn.__func__, size))
        else:
            wrapped = self.wrap(name, fn, size)
        self._patches.append((owner, attr, fn, wrapped))
        setattr(owner, attr, wrapped)

    def enable(self, on: bool) -> None:
        """Switch the installed wrappers on or off; install leaves them on."""
        for owner, attr, original, wrapped in self._patches:
            setattr(owner, attr, wrapped if on else original)


def _breakpoints(func) -> int:
    return len(func.breakpoints)


def _breaks(seq) -> int:
    return len(seq.upper)


def _order(sub) -> int:
    return sub.order


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer; call once, then switch the
    wrappers with tracer.enable."""
    import ramify.cli as cli
    import ramify.filtration as filtration
    import ramify.herbrand as herbrand
    import ramify.pcgroup as pcgroup
    import ramify.planner as planner

    t = tracer
    t.patch(cli, "main", "cli.main")
    for module in (cli, planner, herbrand, filtration):
        for fn in ("format_rat", "parse_rat"):
            if hasattr(module, fn):
                t.patch(module, fn, f"ratio.{fn}")
    for module in (herbrand, planner, pcgroup):
        t.patch(module, "require_prime", "ratio.require_prime")

    for module, names in ((cli, ("psi_step", "compose", "invert")),
                          (planner, ("psi_step", "tower_psi")),
                          (filtration, ("invert", "identity_func"))):
        for fn in names:
            t.patch(module, fn, f"herbrand.{fn}", _breakpoints)
    t.patch(herbrand.PLFunc, "from_json_dict", "herbrand.from_json_dict", _breakpoints)
    t.patch(herbrand.PLFunc, "to_json_dict", "herbrand.to_json_dict")

    for fn in ("evaluate_plan", "compositum_merge", "repair_merge"):
        t.patch(cli, fn, f"planner.{fn}", _breaks)
    for fn in ("break_triple_feasible", "cyclic_break_admissible"):
        t.patch(cli, fn, f"planner.{fn}")
    for cls in (planner.TowerPlan, planner.BreakSequence):
        t.patch(cls, "from_json_dict", f"planner.{cls.__name__}.from_json_dict")
    t.patch(planner.BreakSequence, "to_json_dict", "planner.BreakSequence.to_json_dict")

    t.patch(cli, "consistency_check", "pcgroup.consistency_check")
    t.patch(pcgroup, "consistency_check", "pcgroup.consistency_check")
    t.patch(pcgroup.PcPresentation, "from_json_dict", "pcgroup.PcPresentation.from_json_dict")
    t.patch(pcgroup.PcGroup, "__init__", "pcgroup.PcGroup")
    t.patch(pcgroup.PcGroup, "subgroup", "pcgroup.subgroup", _order)
    for fn in ("lower_central_series", "lower_p_series", "series_equality_check"):
        t.patch(pcgroup.PcGroup, fn, f"pcgroup.series.{fn}")
    for fn in ("min_generators", "rank_growth_probe", "just_infinite_probe", "frattini_subgroup"):
        t.patch(pcgroup.PcGroup, fn, f"pcgroup.{fn}")

    t.patch(cli, "quotient_filtration", "filtration.quotient_filtration")
    t.patch(filtration.CosetGroup, "__init__", "filtration.CosetGroup")
    for fn in ("__init__", "validate", "herbrand_func", "upper_level", "upper_breaks"):
        t.patch(filtration.RamFiltration, fn, f"filtration.{fn}")


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer figures per pass, from a finished span list."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for idx, (name, start, end, parent, size) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", dur - child[idx])
        parent_name = spans[parent][0] if parent >= 0 else ""
        if layer == "herbrand":
            add("herbrand.breakpoints_out", size)
            if name == "herbrand.tower_psi":
                add("herbrand.tower_psi_s", dur)
        elif layer == "planner":
            add("planner.breaks_out", size)
        elif layer == "pcgroup":
            if name == "pcgroup.consistency_check":
                add("pcgroup.consistency_s", dur)
            elif name.startswith("pcgroup.series.") and not parent_name.startswith("pcgroup.series."):
                add("pcgroup.series_s", dur)
            elif name == "pcgroup.subgroup":
                add("pcgroup.closure_s", dur)
                add("pcgroup.subgroup_order_sum", size)
        elif layer == "filtration":
            if name == "filtration.validate":
                add("filtration.validate_s", dur)
            elif name == "filtration.quotient_filtration":
                add("filtration.quotient_s", dur)
        elif layer == "ratio":
            add("ratio.busy_s", dur)
    return {key: value / passes for key, value in out.items()}
