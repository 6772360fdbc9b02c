"""Spans and counters around calls into kbound's five modules.

The tracer replaces each target function with a wrapper in every kbound
module namespace that holds it, because ``verify`` and ``cli`` bind some
imports by name (``from .scroll import phi``) and a caller finds a function
where it looks it up. Leaving the ``with`` block restores every original.
A target that no longer exists is recorded in ``absent`` instead of failing,
so a refactor that inlines or deletes a function shows up as a missing span.

Spans are kept in memory as ``[name, start, end, parent]`` and reduced to
calls and self time (duration minus the time covered by child spans) when
the trace ends.

Run as a script, it traces one kbound CLI invocation in this process:

    python3 perfbench/tracer.py --summary OUT.json -- verify r6 --from 36 --to 40

The invocation's output and exit code are those of ``python -m kbound``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("exact", "bounds", "scroll", "verify", "cli")

#: (module, function) pairs that get a span each, named "<module>.<function>".
SPANS = (
    ("exact", "sign_certificate"),
    ("bounds", "halphen_bound"),
    ("bounds", "pi2_bound"),
    ("bounds", "castelnuovo_bound"),
    ("bounds", "pi1_bound"),
    ("bounds", "propagate_profile"),
    ("bounds", "pi2_profile"),
    ("scroll", "minimize_k2"),
    ("scroll", "extremal_class"),
    ("cli", "main"),
)

#: Functions called millions of times per sweep: counted, not timed.
COUNTERS = (("scroll", "phi"), ("scroll", "_k2_raw"))

#: verify functions that each build one claim's Certificate; their span is
#: named "verify.<claim_id>" after the certificate they return.
CLAIM_BUILDERS = (
    "verify_r2", "verify_r3", "_r4_reduce", "_r4_s", "_r4_s4_low", "_r4_s4_high",
    "verify_r_ge6_spanned", "verify_r_ge6_scroll", "verify_r5_remark",
    "_r5_abs", "_r5_profile", "_r5_deg4", "verify_appendix", "verify_sharpness",
)

SERIALIZE = ("verify", "CaseVerdict.to_json")


def claim_metric(claim_id: str) -> str:
    """Metric-safe form of a claim id (R4.s4.x<=6 -> R4.s4.x_le_6)."""
    return claim_id.replace("<=", "_le_").replace(">", "_gt_")


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self.sign_certs: list = []
        self.claims: list = []
        self.json_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, make_wrapper) -> None:
        home = importlib.import_module(f"kbound.{module_name}")
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for module in (importlib.import_module(f"kbound.{m}") for m in MODULES):
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_method(self, module_name: str, qualname: str, make_wrapper) -> None:
        home = importlib.import_module(f"kbound.{module_name}")
        cls_name, method = qualname.split(".")
        cls = getattr(home, cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if not callable(original):
            self.absent.append(f"{module_name}.{qualname}")
            return
        self._patches.append((cls, method, original))
        setattr(cls, method, make_wrapper(original))

    def __enter__(self) -> "Tracer":
        try:
            for module, name in SPANS:
                on_result = self._signed if name == "sign_certificate" else None
                self._patch_function(module, name, self._span(f"{module}.{name}", on_result))
            for module, name in COUNTERS:
                self._patch_function(module, name, self._counter(f"{module}.{name}"))
            for name in CLAIM_BUILDERS:
                self._patch_function("verify", name, self._span(f"verify.{name}", self._claim))
            self._patch_method(*SERIALIZE, self._span("verify.serialize", self._serialized))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, on_result=None):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = perf_counter()
                if on_result is not None:
                    on_result(index, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _counter(self, name: str):
        cell = self.counts.setdefault(name, [0])

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    # Results are stored and read after the trace, so that reading them costs
    # no time inside any span.
    def _signed(self, index: int, cert) -> None:
        self.sign_certs.append(cert)

    def _claim(self, index: int, cert) -> None:
        claim_id = getattr(cert, "claim_id", None)
        if claim_id is not None:
            self.spans[index][0] = f"verify.{claim_metric(claim_id)}"
            self.claims.append(cert)

    def _serialized(self, index: int, text) -> None:
        self.json_bytes += len(text.encode())

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the layer counts."""
        integers = max_tail = 0
        for cert in self.sign_certs:
            doc = cert.to_json_dict()
            lo, hi = doc["scanned_range"]
            integers += hi - lo + 1
            max_tail = max(max_tail, doc["tail_bound"])
        return {
            "spans": self_times(self.spans),
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "scan_integers": integers,
            "scan_max_tail_bound": max_tail,
            "sweep_degrees": sum(swept_degrees(c.to_json_dict()["params"]) for c in self.claims),
            "json_bytes": self.json_bytes,
            "absent": sorted(set(self.absent)),
        }


def self_times(spans) -> dict[str, list]:
    """{name: [calls, self seconds]} from [name, start, end, parent] spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, start, end, _), child in zip(spans, covered):
        out[name][0] += 1
        out[name][1] += (end - start) - child
    return dict(out)


def swept_degrees(params: dict) -> int:
    """Degrees a claim swept one by one, read from its certificate params:
    a claim sweeps when one of its checks reports a failure_at/failure
    field, over [max(requested from, asserted_from), requested to]."""
    checks = params.get("checks", [])
    if "requested_range" not in params or not any(
        "failure_at" in c or "failure" in c for c in checks
    ):
        return 0
    d_from, d_to = params["requested_range"]
    return max(0, d_to - max(d_from, params.get("asserted_from", d_from)) + 1)


def merge(total: dict, part: dict) -> None:
    """Add `part` into `total` (max for the largest tail bound)."""
    for name, (calls, seconds) in part["spans"].items():
        entry = total["spans"].setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds
    for name, n in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + n
    for key in ("scan_integers", "sweep_degrees", "json_bytes"):
        total[key] += part[key]
    total["scan_max_tail_bound"] = max(total["scan_max_tail_bound"], part["scan_max_tail_bound"])
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))


def empty_summary() -> dict:
    return {
        "spans": {}, "counts": {}, "scan_integers": 0, "scan_max_tail_bound": 0,
        "sweep_degrees": 0, "json_bytes": 0, "absent": [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trace one kbound CLI invocation")
    parser.add_argument("--summary", required=True, help="write the trace summary here")
    parser.add_argument("kbound_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    kbound_argv = args.kbound_argv[1:] if args.kbound_argv[:1] == ["--"] else args.kbound_argv

    from kbound import cli

    with Tracer() as tracer:
        code = cli.main(kbound_argv)
    sys.stdout.flush()
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
