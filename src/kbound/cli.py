"""Command-line front end.

Subcommands:

    kbound bound {castelnuovo,halphen,pi1,pi2,propagate} ...
    kbound scroll {scan,class,extremal,minimize} ...
    kbound verify {all,r2,r3,r4,r5,r6,appendix,sharpness} --from A --to B

All numbers are printed exactly (integers or "num/den"); ``--floor`` renders
integer floors for bounds. Output is deterministic: identical invocations
produce byte-identical output, except for the JSON timestamp field, which
``--no-timestamp`` suppresses.

Exit codes: 0 all requested checks verified (or pure queries), 1 a
certificate holds a counterexample or an exact invariant failed, 2 bad
arguments or out-of-domain inputs, 3 I/O failure.
"""

from __future__ import annotations

import atexit
import errno
import io
import os
import sys
from types import SimpleNamespace

from . import bounds, scroll, verify
from .exact import InconsistencyError, _horner, dumps, rat_str

FORMATS = ("table", "json", "csv")

BOUNDS_CSV_HEADER = ["formula", "d", "bound", "floor", "is_integer", "params"]
SCAN_CSV_HEADER = [
    "d", "a", "alpha", "beta", "degree", "k2", "genus", "admissible", "extremal",
]
VERIFY_CSV_HEADER = ["claim_id", "status", "params", "witness"]

#: argparse keywords by flag, for build_parser and _verify_args; COMMON_OPTIONS end every command.
COMMON_OPTIONS = {
    "--format": {"dest": "format", "choices": FORMATS, "default": "table"},
    "--out": {"dest": "out", "default": None, "help": "write output to this path instead of stdout"},
}
VERIFY_OPTIONS = {
    "--from": {"dest": "d_from", "type": int, "default": 36},
    "--to": {"dest": "d_to", "type": int, "default": 500},
    "--no-timestamp": {"dest": "no_timestamp", "action": "store_true", "default": False,
                       "help": "omit the generated_at field for byte-identical output"},
    **COMMON_OPTIONS,
}


def _passes_through_dev(path: str) -> bool:
    """True if path, or a symlink it leads through, lies under /dev or /proc,
    like /dev/stdout, which may end at a file a shell is appending to."""
    for _ in range(40):  # the kernel's own limit on a chain of symlinks
        head = os.path.realpath(os.path.dirname(os.path.abspath(path))) + "/"
        if head.startswith(("/dev/", "/proc/")):
            return True
        if not os.path.islink(path):
            return False
        path = os.path.join(os.path.dirname(path), os.readlink(path))
    return False


def _emit(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to out_path: the text goes to a temp
    file beside the target, which then replaces it, so a failed write
    leaves any earlier file whole."""
    if out_path is None:
        if sys.stdout is None:  # the shell closed it (>&-)
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        return
    if _passes_through_dev(out_path) or (os.path.exists(out_path) and not os.path.isfile(out_path)):
        # no file to replace; appending keeps what a shell redirection wrote
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(text)
        return
    import shutil
    import tempfile  # only --out needs these two; importing them costs start-up time

    target = os.path.realpath(out_path)  # through a symlink, replace the file it names
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    except OSError as exc:  # name the path the user gave, not mkstemp's random one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if os.path.exists(target):
            shutil.copymode(target, tmp)  # an existing report keeps its mode
        else:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp gives 0600; a new file gets 0666 & ~umask
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _say(text: str) -> None:
    """Write a line of kbound's own to stderr; one that cannot be written is
    dropped, so the exit code stays the documented one."""
    try:
        sys.stderr.write(text)
    except (AttributeError, OSError):  # None: closed by the shell (2>&-); or a dead or full fd 2
        sys.stderr = None  # so that run does not flush it either


def _kv_table(pairs: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


def _json_text(obj) -> str:
    return dumps(obj, indent=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _utc_now() -> str:
    """The current UTC time in ISO 8601, for the ``generated_at`` field."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# bound

def _bound_one(args, d: int, with_profile: bool = False):
    """The bound of args.kind at d and its Hilbert profile: None for halphen,
    and for castelnuovo, pi1 and pi2 unless with_profile (a range prints none)."""
    profile = None
    if args.kind == "castelnuovo":
        result = bounds.castelnuovo_bound(args.r, d)
        if with_profile:
            profile = bounds.castelnuovo_profile(args.r, d)
    elif args.kind == "halphen":
        result = bounds.halphen_bound(d, args.s)
    elif args.kind == "pi1":
        result = bounds.pi1_bound(d)
        if with_profile:
            profile = bounds.pi1_profile(d)
    elif args.kind == "pi2":
        result = bounds.pi2_bound(d)
        if with_profile:
            profile = bounds.pi2_profile(d)
    else:  # propagate: the genus comes from the profile
        try:
            seed = [int(v) for v in args.seed.split(",")]
        except ValueError:
            raise ValueError(f"--seed must be three comma-separated integers, got {args.seed!r}") from None
        profile = bounds.propagate_profile(seed, d)
        g = bounds.genus_from_profile(profile)
        result = bounds.GenusBoundResult(
            formula_id="propagated",
            d=d,
            bound=g,
            params={"seed": args.seed},
        )
    return result, profile


def _bound_csv_row(fields: dict, key: str) -> list:
    """The CSV row of a GenusBoundResult's to_json_dict, whose key field fills the bound column."""
    return [fields["formula_id"], fields["d"], fields[key], fields["floor"], fields["is_integer"],
            _params_text(fields["params"])]


def _cmd_bound(args) -> int:
    key = "floor" if args.floor else "bound"  # the to_json_dict field that the bound column prints
    if args.d_to is not None:
        # (d, bound) table over the requested degree range
        if args.d_to < args.d:
            raise ValueError("--d-to must be >= --d")
        rows = [_bound_one(args, d)[0].to_json_dict() for d in range(args.d, args.d_to + 1)]
        if args.format == "json":
            text = _json_text(rows)
        elif args.format == "csv":
            text = _csv_text(BOUNDS_CSV_HEADER, [_bound_csv_row(r, key) for r in rows])
        else:
            text = "d  bound\n" + "".join(f"{r['d']}  {r[key]}\n" for r in rows)
        _emit(text, args.out)
        return 0

    result, profile = _bound_one(args, args.d, with_profile=True)
    payload = result.to_json_dict()
    if profile is not None:
        payload["profile"] = profile.to_json_dict()

    if args.format == "json":
        text = _json_text(payload)
    elif args.format == "csv":
        text = _csv_text(BOUNDS_CSV_HEADER, [_bound_csv_row(payload, key)])
    else:
        pairs = [("formula", result.formula_id), ("d", result.d), ("bound", payload[key])]
        if not args.floor:
            pairs.append(("floor", result.floor))
        pairs.append(("integer", "yes" if result.is_integer else "no"))
        pairs.extend((k, v) for k, v in result.params.items())
        if profile is not None:
            pairs.append(("profile", " ".join(str(v) for v in profile.prefix) + " ..."))
            pairs.append(("stabilizes_at", profile.stabilization_index))
        text = _kv_table(pairs)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# scroll

def _rows_text(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text(rows)
    cells = [["" if r[h] is None else r[h] for h in SCAN_CSV_HEADER] for r in rows]
    if fmt == "csv":
        return _csv_text(SCAN_CSV_HEADER, cells)
    table = [SCAN_CSV_HEADER, *cells]
    widths = [max(len(str(v)) for v in column) for column in zip(*table)]
    lines = ["  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def _cmd_scroll(args) -> int:
    if args.action == "scan":
        rows = scroll.frame_scan(args.d)
        _emit(_rows_text(rows, args.format), args.out)
        return 0
    if args.action == "class":
        c = scroll.DivisorClass(args.alpha, args.beta)
        row = scroll.class_row(c)
        reasons = scroll.inadmissible_reasons(c)
        if args.format == "json":
            text = _json_text({**row, "inadmissible_reasons": reasons} if reasons else row)
        else:
            text = _rows_text([row], args.format)
            if args.format == "table" and reasons:
                text += "inadmissible: " + "; ".join(reasons) + "\n"
        _emit(text, args.out)
        return 0
    if args.action == "extremal":
        ext = scroll.extremal_class(args.d)
        row = scroll.class_row(ext.cls)
        fields = {k: row[k] for k in ("alpha", "beta", "a", "k2", "genus")}
        if args.format == "json":
            text = _json_text({"d": args.d, **fields})
        elif args.format == "csv":
            text = _rows_text([row], args.format)
        else:
            text = _kv_table([("d", args.d), ("class", ext.cls.text()), *fields.items()])
        _emit(text, args.out)
        return 0
    # minimize
    res = scroll.minimize_k2(args.d)
    payload = res.to_json_dict()
    form = scroll.k2_min_form(args.d)
    payload["k2_min_closed_form"] = rat_str(_horner(form.num, args.d), form.den)
    if args.format == "json":
        text = _json_text(payload)
    elif args.format == "csv":
        text = _csv_text(sorted(payload), [[payload[k] for k in sorted(payload)]])
    else:
        text = _kv_table(sorted(payload.items()))
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    cases = verify.CASES if args.case == "all" else [args.case]
    verdict = verify.verify_theorem(args.d_from, args.d_to, cases=cases)

    if args.format == "json":
        text = verdict.to_json(None if args.no_timestamp else _utc_now())
    elif args.format == "csv":
        rows = [
            [c.claim_id, c.status, dumps(c.params), dumps(c.witness)]
            for c in verdict.certificates
        ]
        text = _csv_text(VERIFY_CSV_HEADER, rows)
    else:
        width = max(len(c.claim_id) for c in verdict.certificates)
        lines = [f"degree range [{verdict.d_from}, {verdict.d_to}]"]
        lines += [f"{c.claim_id.ljust(width)}  {c.status}" for c in verdict.certificates]
        lines.append(f"overall: {'verified' if verdict.overall else 'FAILED'}")
        text = "\n".join(lines) + "\n"

    _emit(text, args.out)

    skipped = [c for c in verdict.certificates if c.status == verify.OUT_OF_RANGE]
    if skipped:
        _say(f"warning: {len(skipped)} claim(s) outside their asserted range; reported, not asserted\n")
    return 0 if verdict.overall else 1


# ---------------------------------------------------------------------------

def _add_options(p, options: dict, func) -> None:
    for flag, keywords in options.items():
        p.add_argument(flag, **keywords)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """The kbound parser: every command, with its arguments and sub-commands."""
    import argparse  # with gettext and locale, a cost that a plain verify run skips
    parser = argparse.ArgumentParser(
        prog="kbound",
        description="Exact genus/K^2 bounds, scroll divisor classes, and"
        " certificate-producing verification of the lower bound K^2 >= -d(d-6).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bsub = sub.add_parser("bound", help="evaluate one of the genus bounds").add_subparsers(
        dest="kind", required=True)
    for kind in ("castelnuovo", "halphen", "pi1", "pi2", "propagate"):
        bp = bsub.add_parser(kind)
        bp.add_argument("--d", type=int, required=True)
        bp.add_argument("--d-to", dest="d_to", type=int, default=None,
                        help="sweep d..d-to and emit a (d, bound) table")
        if kind == "castelnuovo":
            bp.add_argument("--r", type=int, required=True)
        if kind == "halphen":
            bp.add_argument("--s", type=int, required=True)
        if kind == "propagate":
            bp.add_argument("--seed", required=True, help="three values, e.g. 4,9,16")
        bp.add_argument("--floor", action="store_true", help="print the integer floor")
        _add_options(bp, COMMON_OPTIONS, _cmd_bound)

    ssub = sub.add_parser("scroll", help="divisor classes on the degree-3 scroll").add_subparsers(
        dest="action", required=True)
    for action in ("scan", "class", "extremal", "minimize"):
        sp = ssub.add_parser(action)
        if action == "class":
            sp.add_argument("--alpha", type=int, required=True)
            sp.add_argument("--beta", type=int, required=True)
        else:
            sp.add_argument("--d", type=int, required=True)
        _add_options(sp, COMMON_OPTIONS, _cmd_scroll)

    v = sub.add_parser("verify", help="produce certificates for the named case")
    v.add_argument("case", choices=("all", *verify.CASES))
    _add_options(v, VERIFY_OPTIONS, _cmd_verify)

    return parser


def _verify_args(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for ``verify CASE`` then whole VERIFY_OPTIONS pairs and switches;
    None for argparse on ``-h``, ``--fr``, ``--to=40``, a bad value or one starting "-"."""
    if len(argv) < 2 or argv[0] != "verify" or argv[1] not in ("all", *verify.CASES):
        return None
    values, tokens = {spec["dest"]: spec["default"] for spec in VERIFY_OPTIONS.values()}, iter(argv[2:])
    try:
        for flag in tokens:
            spec = VERIFY_OPTIONS[flag]
            if "action" in spec:  # store_true
                values[spec["dest"]] = True
            elif (value := next(tokens)).startswith("-") or value not in spec.get("choices", [value]):
                return None
            else:
                values[spec["dest"]] = spec.get("type", str)(value)
    except (KeyError, StopIteration, ValueError):  # not a flag, no value, not an int
        return None
    return SimpleNamespace(command="verify", case=argv[1], **values, func=_cmd_verify)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _verify_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistencyError as exc:
        _say(f"inconsistency: {exc}\n")
        return 1
    except ValueError as exc:
        _say(f"error: {exc}\n")
        return 2
    except OSError as exc:
        _say(f"i/o error: {exc}\n")
        return 3


def run(argv=None):
    """The process entry: main, the atexit handlers, a flush of stdout and stderr, then os._exit."""
    code = main(argv)
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed by the shell
            stream.flush()
    except OSError as exc:  # as main reports a failed write
        _say(f"i/o error: {exc}\n")
        code = 3
    os._exit(code)  # skips teardown: kbound starts no thread, and _emit closes its files


if __name__ == "__main__":
    raise SystemExit(run())
