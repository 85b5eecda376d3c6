"""Batch command line for the library: JSON in, JSON or CSV out.

Exit codes: 0 success, 1 malformed input, 2 infeasible or inadmissible
plan data, 3 inconsistent presentation, 4 enumeration cap exceeded.
Output is deterministic: keys sorted, element lists sorted, rationals as
"num/den" strings, no timestamps.  The environment variable RAMIFY_CAP
overrides the group enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InfeasiblePlanError,
    InputError,
)
from .ratio import format_rat, is_int, parse_rat, reject_unknown

__all__ = ["main"]

# The layer names each command family calls.  Importing this module loads no
# layer: main binds a family's names on its first command, through the lazy
# package namespace, which knows each name's home module.
_FAMILY_NAMES = {
    "herbrand": ("PLFunc", "compose", "invert", "psi_step"),
    "group": ("DEFAULT_CAP", "PcGroup", "PcPresentation", "consistency_check"),
    "filtration": ("DEFAULT_CAP", "PcGroup", "PcPresentation", "RamFiltration",
                   "quotient_filtration"),
    "plan": ("TowerPlan", "break_triple_feasible", "cyclic_break_admissible", "evaluate_plan"),
    "merge": ("BreakSequence", "compositum_merge", "repair_merge"),
}
_LAYER_NAMES = {name for names in _FAMILY_NAMES.values() for name in names}


def __getattr__(name: str):
    """Resolve a layer name on first access and keep it bound here (PEP 562)."""
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _bind(command: str) -> None:
    """Bind the names ``command`` calls, keeping any already set here (a patch, a wrapper)."""
    for name in _FAMILY_NAMES[command]:
        if name not in globals():
            __getattr__(name)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad flags; route every usage
    # problem through the malformed-input path instead
    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _cap() -> int:
    raw = os.environ.get("RAMIFY_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"RAMIFY_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"RAMIFY_CAP must be positive, got {cap}")
    return cap


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return _parse_json_arg(text, path)


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{what} is nested too deeply") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from None


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True) + "\n", out_path)


def _elements_arg(group, text: str, flag: str) -> list:
    raw = _parse_json_arg(text, flag)
    if not isinstance(raw, list):
        raise InputError(f"{flag} must be a JSON list of exponent vectors")
    return [group.element(g) for g in raw]


def _subgroup_json(sub) -> dict:
    return {"order": sub.order, "elements": [list(x) for x in sorted(sub.elements)]}


def _load_filtration(data, cap: int, check: bool) -> RamFiltration:
    if not isinstance(data, dict):
        raise InputError("filtration JSON must be an object")
    if "group" not in data:
        raise InputError('filtration JSON needs a "group" presentation')
    group = PcGroup(PcPresentation.from_json_dict(data["group"]), cap=cap)
    entries = data.get("ig", [])
    if not isinstance(entries, list):
        raise InputError('"ig" must be a list of {"element", "value"} objects')
    ig = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"element", "value"}:
            raise InputError('each "ig" entry needs exactly "element" and "value"')
        element = entry["element"]
        if not isinstance(element, list) or not all(map(is_int, element)):
            raise InputError('"element" must be a list of integer exponents')
        key = tuple(element)
        if key in ig:
            raise InputError(f"duplicate ig entry for element {list(key)}")
        ig[key] = entry["value"]
    default = data.get("default")
    reject_unknown(data, ("group", "ig", "default"), "filtration")
    return RamFiltration(group, ig, default=default, check=check)


def _verdict_obj(seq: BreakSequence) -> dict:
    return {
        "verdict": seq.verdict,
        "limit_bound": None if seq.limit_bound is None else format_rat(seq.limit_bound),
        "certificate": seq.certificate,
        "warnings": list(seq.warnings),
    }


def _seq_csv(seq: BreakSequence) -> str:
    lines = ["n,lower_break,upper_break,flag"]
    for k in range(seq.horizon):
        lower = format_rat(seq.lower[k]) if seq.lower else ""
        flag = 1 if seq.flag_at(k) else 0
        lines.append(f"{seq.levels[k]},{lower},{format_rat(seq.upper[k])},{flag}")
    lines.append(json.dumps(_verdict_obj(seq), sort_keys=True))
    return "\n".join(lines) + "\n"


def _seq_output(seq: BreakSequence, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        _emit(_seq_csv(seq), out_path)
    else:
        _emit_json(seq.to_json_dict(), out_path)


# ---------------------------------------------------------------------------
# herbrand subcommands
# ---------------------------------------------------------------------------

def _cmd_herbrand(args) -> int:
    if args.action == "step":
        func = psi_step(args.brk, args.p)
    elif args.action == "compose":
        data = _read_json(args.file)
        if not isinstance(data, dict) or not {"outer", "inner"} <= set(data):
            raise InputError('compose input needs "outer" and "inner" functions')
        reject_unknown(data, ("outer", "inner"), "compose")
        func = compose(
            PLFunc.from_json_dict(data["outer"]),
            PLFunc.from_json_dict(data["inner"]),
        )
    elif args.action == "invert":
        func = invert(PLFunc.from_json_dict(_read_json(args.file)))
    else:  # eval
        func = PLFunc.from_json_dict(_read_json(args.file))
        _emit_json({"value": format_rat(func.eval(parse_rat(args.at)))}, args.out)
        return 0
    if getattr(args, "eval", None) is not None:
        _emit_json({"value": format_rat(func.eval(parse_rat(args.eval)))}, args.out)
    else:
        _emit_json(func.to_json_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# group subcommands
# ---------------------------------------------------------------------------

def _cmd_group(args) -> int:
    cap = _cap()
    data = _read_json(args.file)
    pres = PcPresentation.from_json_dict(data)
    if args.action == "check":
        result = consistency_check(pres, exhaustive=args.exhaustive or None, cap=cap)
        if not result.ok:
            out = {
                "consistent": False,
                "reason": result.detail,
                "witness": [list(w) for w in result.witness] if result.witness else None,
            }
            _emit_json(out, args.out)
            return 3
        out = {"consistent": True, "p": pres.p, "n": pres.n, "order": pres.order}
        if args.series:
            group = PcGroup(pres, cap=cap, _checked=True)
            out["series"] = group.series_equality_check()
        _emit_json(out, args.out)
        return 0
    group = PcGroup(pres, cap=cap)
    if args.action == "closure":
        gens = _elements_arg(group, args.gens, "--gens")
        _emit_json(_subgroup_json(group.subgroup(gens, normal=args.normal)), args.out)
    elif args.action == "series":
        _emit_json(group.series_equality_check(), args.out)
    elif args.action == "rank":
        out = group.rank_growth_probe(args.k)
        out["k"] = args.k
        _emit_json(out, args.out)
    else:  # probe
        if args.tower is None:
            indices = list(range(1, pres.n + 1))
        else:
            indices = _parse_ints(args.tower, "--tower")
        _emit_json(group.just_infinite_probe(indices), args.out)
    return 0


def _parse_ints(text: str, what: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise InputError(f"{what} must be comma-separated integers, got {part!r}") from None
    return out


# ---------------------------------------------------------------------------
# filtration subcommands
# ---------------------------------------------------------------------------

def _cmd_filtration(args) -> int:
    cap = _cap()
    data = _read_json(args.file)
    if args.action == "validate":
        rf = _load_filtration(data, cap, check=False)
        report = rf.validate()
        if report.ok:
            _emit_json({"ok": True}, args.out)
        else:
            _emit_json(
                {
                    "ok": False,
                    "level": format_rat(report.level),
                    "reason": report.reason,
                    "witness": [list(w) for w in report.witness],
                },
                args.out,
            )
        return 0
    rf = _load_filtration(data, cap, check=True)
    if args.action == "herbrand":
        _emit_json(rf.herbrand_func().to_json_dict(), args.out)
    elif args.action == "upper":
        _emit_json(_subgroup_json(rf.upper_level(parse_rat(args.at))), args.out)
    else:  # quotient
        seed = _elements_arg(rf.group, args.kernel, "--kernel")
        kernel = rf.group.subgroup(seed, normal=True)
        quot = quotient_filtration(rf, kernel)
        ig_rows = [
            {"element": list(x), "value": format_rat(v)}
            for x, v in sorted(quot.ig.items())
        ]
        _emit_json(
            {
                "order": quot.group.order,
                "ig": ig_rows,
                "upper_breaks": [format_rat(u) for u in quot.upper_breaks()],
            },
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# plan subcommands
# ---------------------------------------------------------------------------

def _evaluate_plan_dict(data) -> BreakSequence:
    _bind("plan")  # a spawned pool worker starts from a bare import of this module
    return evaluate_plan(TowerPlan.from_json_dict(data))


def _cmd_plan(args) -> int:
    if args.action == "feasible":
        result = break_triple_feasible(args.i, args.j, args.s, args.p, args.e)
        _emit_json({"feasible": result.ok, "reason": result.reason}, args.out)
        return 0 if result.ok else 2
    if args.action == "admissible":
        ok = cyclic_break_admissible(
            args.j, args.p, args.e, strict=not args.bound_only
        )
        _emit_json({"admissible": ok}, args.out)
        return 0 if ok else 2
    # run
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    data = _read_json(args.file)
    if isinstance(data, dict) and "plans" in data:
        reject_unknown(data, ("plans",), "sweep")
        plan_dicts = data["plans"]
        if not isinstance(plan_dicts, list) or not plan_dicts:
            raise InputError('"plans" must be a nonempty list')
        # under fork every worker starts on the first submit, so never ask
        # for more than there are plans or CPUs
        workers = min(args.jobs, len(plan_dicts), os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                seqs = list(pool.map(_evaluate_plan_dict, plan_dicts))
        else:
            seqs = [_evaluate_plan_dict(d) for d in plan_dicts]
        if args.format == "csv":
            _emit("".join(_seq_csv(s) for s in seqs), args.out)
        else:
            _emit_json({"results": [s.to_json_dict() for s in seqs]}, args.out)
        return 0
    _seq_output(_evaluate_plan_dict(data), args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# merge subcommands
# ---------------------------------------------------------------------------

def _cmd_merge(args) -> int:
    data = _read_json(args.file)
    if not isinstance(data, dict):
        raise InputError("merge input must be a JSON object")
    if args.action == "max":
        raw = data.get("sequences")
        if not isinstance(raw, list) or not raw:
            raise InputError('merge max input needs a nonempty "sequences" list')
        reject_unknown(data, ("sequences",), "merge")
        merged = compositum_merge([BreakSequence.from_json_dict(s) for s in raw])
    else:  # repair
        if not {"base", "family"} <= set(data):
            raise InputError('merge repair input needs "base" and "family"')
        reject_unknown(data, ("base", "family"), "merge")
        base = BreakSequence.from_json_dict(data["base"])
        family = data["family"]
        if not isinstance(family, list):
            raise InputError('"family" must be a list of rationals')
        merged = repair_merge(base, family)
    _seq_output(merged, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


@functools.cache
def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="ramify", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    herbrand = top.add_parser("herbrand", help="piecewise-linear transition functions")
    hsub = herbrand.add_subparsers(dest="action", required=True)
    h_step = hsub.add_parser("step", help="single degree-p step function")
    h_step.add_argument("--break", dest="brk", type=int, required=True)
    h_step.add_argument("--p", type=int, required=True)
    h_step.add_argument("--eval", default=None, help="evaluate at this rational")
    _add_out(h_step)
    h_comp = hsub.add_parser("compose", help="compose outer after inner")
    h_comp.add_argument("--file", required=True)
    h_comp.add_argument("--eval", default=None)
    _add_out(h_comp)
    h_inv = hsub.add_parser("invert", help="exact inverse")
    h_inv.add_argument("--file", required=True)
    h_inv.add_argument("--eval", default=None)
    _add_out(h_inv)
    h_eval = hsub.add_parser("eval", help="evaluate a stored function")
    h_eval.add_argument("--file", required=True)
    h_eval.add_argument("--at", required=True)
    _add_out(h_eval)

    group = top.add_parser("group", help="power-commutator presentations")
    gsub = group.add_subparsers(dest="action", required=True)
    g_check = gsub.add_parser("check", help="consistency check")
    g_check.add_argument("--file", required=True)
    g_check.add_argument("--series", action="store_true", help="include series report")
    g_check.add_argument("--exhaustive", action="store_true", help="force full table verification")
    _add_out(g_check)
    g_clos = gsub.add_parser("closure", help="subgroup or normal closure")
    g_clos.add_argument("--file", required=True)
    g_clos.add_argument("--gens", required=True, help="JSON list of exponent vectors")
    g_clos.add_argument("--normal", action="store_true")
    _add_out(g_clos)
    g_ser = gsub.add_parser("series", help="central and p-series report")
    g_ser.add_argument("--file", required=True)
    _add_out(g_ser)
    g_rank = gsub.add_parser("rank", help="minimal generators of the gap subgroup")
    g_rank.add_argument("--file", required=True)
    g_rank.add_argument("--k", type=int, required=True)
    _add_out(g_rank)
    g_probe = gsub.add_parser("probe", help="normal closures along the tower")
    g_probe.add_argument("--file", required=True)
    g_probe.add_argument("--tower", default=None, help="comma-separated generator indices")
    _add_out(g_probe)

    filt = top.add_parser("filtration", help="break filtrations on presented groups")
    fsub = filt.add_subparsers(dest="action", required=True)
    f_val = fsub.add_parser("validate", help="check every level set is normal")
    f_val.add_argument("--file", required=True)
    _add_out(f_val)
    f_her = fsub.add_parser("herbrand", help="transition function of the filtration")
    f_her.add_argument("--file", required=True)
    _add_out(f_her)
    f_up = fsub.add_parser("upper", help="level set in upper numbering")
    f_up.add_argument("--file", required=True)
    f_up.add_argument("--at", required=True)
    _add_out(f_up)
    f_quot = fsub.add_parser("quotient", help="induced filtration on a quotient")
    f_quot.add_argument("--file", required=True)
    f_quot.add_argument("--kernel", required=True, help="JSON list of exponent vectors")
    _add_out(f_quot)

    plan = top.add_parser("plan", help="tower break-sequence plans")
    psub = plan.add_subparsers(dest="action", required=True)
    p_run = psub.add_parser("run", help="evaluate a plan or a sweep of plans")
    p_run.add_argument("--file", required=True)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--jobs", type=int, default=1)
    _add_out(p_run)
    p_feas = psub.add_parser("feasible", help="break-triple compatibility")
    for flag in ("--i", "--j", "--s", "--p", "--e"):
        p_feas.add_argument(flag, type=int, required=True)
    _add_out(p_feas)
    p_adm = psub.add_parser("admissible", help="cyclic degree-p break bound")
    for flag in ("--j", "--p", "--e"):
        p_adm.add_argument(flag, type=int, required=True)
    p_adm.add_argument("--bound-only", action="store_true", help="skip the divisibility half of the strict check")
    _add_out(p_adm)

    merge = top.add_parser("merge", help="combine break sequences")
    msub = merge.add_subparsers(dest="action", required=True)
    m_max = msub.add_parser("max", help="index-wise maximum with collision flags")
    m_max.add_argument("--file", required=True)
    m_max.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(m_max)
    m_rep = msub.add_parser("repair", help="raise a base sequence by family bounds")
    m_rep.add_argument("--file", required=True)
    m_rep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(m_rep)

    return parser


_DISPATCH = {
    "herbrand": _cmd_herbrand,
    "group": _cmd_group,
    "filtration": _cmd_filtration,
    "plan": _cmd_plan,
    "merge": _cmd_merge,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _bind(args.command)
        return _DISPATCH[args.command](args)
    except InputError as exc:
        return _fail("malformed-input", exc, 1)
    except InfeasiblePlanError as exc:
        return _fail("infeasible-plan", exc, 2)
    except InconsistentPresentationError as exc:
        return _fail("inconsistent-presentation", exc, 3)
    except CapExceededError as exc:
        return _fail("cap-exceeded", exc, 4)


def _fail(code: str, exc: Exception, status: int) -> int:
    sys.stderr.write(json.dumps({"code": code, "error": str(exc)}, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
