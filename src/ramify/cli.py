"""Batch command line for the library: JSON in, JSON or CSV out.

Exit codes: 0 success, 1 malformed input, 2 infeasible or inadmissible
plan data, 3 inconsistent presentation, 4 enumeration cap exceeded.
Output is deterministic: keys sorted, element lists sorted, rationals as
"num/den" strings, no timestamps.  The environment variable RAMIFY_CAP
overrides the group enumeration cap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types

from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InfeasiblePlanError,
    InputError,
    digit_limit_error,
    is_int,
    reject_unknown,
)

__all__ = ["main"]

# The layer names each command family calls.  Importing this module loads no
# layer, nor fractions: main binds a family's names on its first command,
# through the lazy package namespace, which knows each name's home module.
_FAMILY_NAMES = {
    "herbrand": ("PLFunc", "compose", "invert", "psi_step", "format_rat", "parse_rat"),
    "group": ("DEFAULT_CAP", "PcGroup", "PcPresentation", "consistency_check"),
    "filtration": ("DEFAULT_CAP", "PcGroup", "PcPresentation", "RamFiltration",
                   "quotient_filtration", "format_rat", "parse_rat"),
    "plan": ("TowerPlan", "break_triple_feasible", "cyclic_break_admissible", "evaluate_plan",
             "format_rat"),
    "merge": ("BreakSequence", "compositum_merge", "repair_merge", "format_rat"),
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
    try:
        text = json.dumps(obj, sort_keys=True)
    except ValueError:  # an integer past the digit limit of int-to-str conversion
        raise digit_limit_error() from None
    _emit(text + "\n", out_path)


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
        func = compose(PLFunc.from_json_dict(data["outer"]), PLFunc.from_json_dict(data["inner"]))
    elif args.action == "invert":
        func = invert(PLFunc.from_json_dict(_read_json(args.file)))
    else:  # eval
        func = PLFunc.from_json_dict(_read_json(args.file))
    at = args.at if args.action == "eval" else args.eval
    if at is not None:
        _emit_json({"value": format_rat(func.eval(parse_rat(at)))}, args.out)
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
        out = {"ok": True}
        if not report.ok:
            out = {"ok": False, "level": format_rat(report.level), "reason": report.reason,
                   "witness": [list(w) for w in report.witness]}
        _emit_json(out, args.out)
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
        ig_rows = [{"element": list(quot.group.lift(x)), "value": format_rat(v)}
                   for x, v in sorted(quot.ig.items())]
        _emit_json({"order": quot.group.order, "ig": ig_rows,
                    "upper_breaks": [format_rat(u) for u in quot.upper_breaks()]}, args.out)
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
        ok = cyclic_break_admissible(args.j, args.p, args.e, strict=not args.bound_only)
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
# argv: one table, read by a direct scanner and by the argparse parser
# ---------------------------------------------------------------------------

# family -> (handler, help, {action -> (help, flags)}); a flag is (option, argparse
# keywords), and every action also takes _OUT, last
_FILE = ("--file", {"required": True})
_INT = {"type": int, "required": True}
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "csv"})
_VECTORS = {"required": True, "help": "JSON list of exponent vectors"}
_OUT = ("--out", {"help": "write output to this path instead of stdout"})
_COMMANDS = {
    "herbrand": (_cmd_herbrand, "piecewise-linear transition functions", {
        "step": ("single degree-p step function", (("--break", {"dest": "brk", **_INT}),
                 ("--p", _INT), ("--eval", {"help": "evaluate at this rational"}))),
        "compose": ("compose outer after inner", (_FILE, ("--eval", {}))),
        "invert": ("exact inverse", (_FILE, ("--eval", {}))),
        "eval": ("evaluate a stored function", (_FILE, ("--at", {"required": True}))),
    }),
    "group": (_cmd_group, "power-commutator presentations", {
        "check": ("consistency check", (
            _FILE, ("--series", {"action": "store_true", "help": "include series report"}),
            ("--exhaustive", {"action": "store_true", "help": "force full table verification"}))),
        "closure": ("subgroup or normal closure",
                    (_FILE, ("--gens", _VECTORS), ("--normal", {"action": "store_true"}))),
        "series": ("central and p-series report", (_FILE,)),
        "rank": ("minimal generators of the gap subgroup", (_FILE, ("--k", _INT))),
        "probe": ("normal closures along the tower",
                  (_FILE, ("--tower", {"help": "comma-separated generator indices"}))),
    }),
    "filtration": (_cmd_filtration, "break filtrations on presented groups", {
        "validate": ("check every level set is normal", (_FILE,)),
        "herbrand": ("transition function of the filtration", (_FILE,)),
        "upper": ("level set in upper numbering", (_FILE, ("--at", {"required": True}))),
        "quotient": ("induced filtration on a quotient", (_FILE, ("--kernel", _VECTORS))),
    }),
    "plan": (_cmd_plan, "tower break-sequence plans", {
        "run": ("evaluate a plan or a sweep of plans",
                (_FILE, _FORMAT, ("--jobs", {"type": int, "default": 1}))),
        "feasible": ("break-triple compatibility", tuple(
            (option, _INT) for option in ("--i", "--j", "--s", "--p", "--e"))),
        "admissible": ("cyclic degree-p break bound", (
            ("--j", _INT), ("--p", _INT), ("--e", _INT),
            ("--bound-only", {"action": "store_true",
                              "help": "skip the divisibility half of the strict check"}))),
    }),
    "merge": (_cmd_merge, "combine break sequences", {
        "max": ("index-wise maximum with collision flags", (_FILE, _FORMAT)),
        "repair": ("raise a base sequence by family bounds", (_FILE, _FORMAT)),
    }),
}


@functools.cache
def _flags(family: str, action: str):
    """option -> (dest, int, str or True for store_true, choices), and the defaults."""
    flags, defaults = {}, {}
    for option, kw in (*_COMMANDS[family][2][action][1], _OUT):
        dest = kw.get("dest", option[2:].replace("-", "_"))
        store_true = kw.get("action") == "store_true"
        flags[option] = (dest, store_true or kw.get("type", str), kw.get("choices"))
        if not kw.get("required"):
            defaults[dest] = False if store_true else kw.get("default")
    return flags, defaults


def _scan(argv):
    """The namespace argparse would return for a regular argv, or None to defer to it.

    Regular is a family, an action, then declared flags spelled exactly, as
    ``--flag value`` or ``--flag=value``, with an int given as ASCII digits.
    Help, prefixes, a value token starting with "-", "--", unknown or missing
    flags, any other int, a bad choice and an empty "=" value all defer, so
    argparse answers them with its own bytes.
    """
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1] not in _COMMANDS[argv[0]][2]:
        return None
    flags, defaults = _flags(argv[0], argv[1])
    ns = {"command": argv[0], "action": argv[1], **defaults}
    tokens = iter(argv[2:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if option not in flags:
            return None
        dest, kind, choices = flags[option]
        if kind is True:  # store_true takes no value
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")  # a missing value defers as one starting with "-" does
            if value.startswith("-"):
                return None
        elif not value:
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the digit limit of text-to-int conversion
                return None
        if choices is not None and value not in choices:
            return None
        ns[dest] = value
    if len(ns) < len(flags) + 2:  # a required flag is missing
        return None
    return types.SimpleNamespace(**ns)


@functools.cache
def build_parser():
    """The argparse parser of the table, for help pages and usage errors."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        # argparse exits with its own code 2 on bad flags; route every usage
        # problem through the malformed-input path instead
        def error(self, message):
            raise InputError(message)

    parser = _ArgumentParser(prog="ramify", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for family, (_, help_, actions) in _COMMANDS.items():
        sub = top.add_parser(family, help=help_).add_subparsers(dest="action", required=True)
        for action, (help_, flags) in actions.items():
            action_parser = sub.add_parser(action, help=help_)
            for option, kw in (*flags, _OUT):
                action_parser.add_argument(option, **kw)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _scan(argv) or build_parser().parse_args(argv)
        _bind(args.command)
        return _COMMANDS[args.command][0](args)
    except InputError as exc:
        return _fail("malformed-input", exc, 1)
    except InfeasiblePlanError as exc:
        return _fail("infeasible-plan", exc, 2)
    except InconsistentPresentationError as exc:
        return _fail("inconsistent-presentation", exc, 3)
    except CapExceededError as exc:
        return _fail("cap-exceeded", exc, 4)
    except MemoryError:  # a memory limit on the process, met before any cap of ours
        return _fail("cap-exceeded", CapExceededError("out of memory"), 4)


def _fail(code: str, exc: Exception, status: int) -> int:
    sys.stderr.write(json.dumps({"code": code, "error": str(exc)}, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
