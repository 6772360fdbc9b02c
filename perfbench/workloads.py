"""Operation catalogues and seeded generators for the two workloads.

An operation is the argv kbound receives (without ``python -m kbound``).
Every operation a generator can emit is listed in a finite catalogue, and
``pins.json`` holds the sha256 of each catalogue operation's output at the
commit the pins were made from, so every generated operation is checked.

Each workload splits its operation stream into passes of fixed composition:
the seed picks parameters and order inside a pass, never how many
operations of each kind it holds, so runs with different seeds do the same
amount of work of each kind.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "short")

# A sweep operation is one `python -m kbound verify all` process over a
# 200-degree window of high degrees, so the claims weigh about what they
# weigh in the long certification job `verify all --from 36 --to 2000`.
# Traced in one process on a 2-vCPU host, that job spends 53-62% of its
# time in APPENDIX.min, 28-33% in SHARPNESS, 7-9% in R5 and 2-3% in R4; a
# pass of five windows near d = 1500 spends 49%, 30%, 7-8% and 13% of its
# self time, the extra R4 share being the 85 sign certificates that every
# process repeats. One whole `--to 2000` job per operation would leave too few
# operations in a run for steady latency percentiles.
#
# A degree's cost grows with d, so the windows start in a narrow band: a
# window's cost then varies by under 7%, and the median operation is any
# window rather than the middle one of a tiling, whose cost moved from
# seed to seed.
SWEEP_WIDTH = 200
SWEEP_WINDOWS = 5
SWEEP_STARTS = range(1450, 1550, 5)


def sweep_argv(start: int) -> tuple[str, ...]:
    return (
        "verify", "all", "--from", str(start), "--to", str(start + SWEEP_WIDTH - 1),
        "--format", "json", "--no-timestamp",
    )


def sweep_catalogue() -> list[tuple[str, ...]]:
    return [sweep_argv(start) for start in SWEEP_STARTS]


def sweep_pass(rng: random.Random) -> list[tuple[str, ...]]:
    """One pass: five windows at distinct seeded starts, in seeded order."""
    return [sweep_argv(start) for start in rng.sample(SWEEP_STARTS, SWEEP_WINDOWS)]


SHORT_CASES = ("all", "r4", "r5", "r6", "appendix", "sharpness")
FORMATS = ("json", "csv", "table")
SHORT_TO = range(36, 121)


def short_argv(case: str, d_to: int) -> tuple[str, ...]:
    # The format follows d_to mod 3, so the catalogue needs one entry per
    # (case, d_to) and a pass still rotates through all three formats.
    return (
        "verify", case, "--from", "36", "--to", str(d_to),
        "--format", FORMATS[d_to % 3], "--no-timestamp",
    )


def short_catalogue() -> list[tuple[str, ...]]:
    return [short_argv(case, d) for case in SHORT_CASES for d in SHORT_TO]


def short_pass(rng: random.Random) -> list[tuple[str, ...]]:
    """One pass: every case once in every format, each with a seeded --to."""
    ops = []
    for case in SHORT_CASES:
        for residue in range(3):
            ops.append(short_argv(case, rng.choice([d for d in SHORT_TO if d % 3 == residue])))
    rng.shuffle(ops)
    return ops


def passes(workload: str, seed: int):
    """Endless stream of passes (lists of argv tuples) for a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make_pass = sweep_pass if workload == "sweep" else short_pass
    while True:
        yield make_pass(rng)


def catalogue() -> list[tuple[str, ...]]:
    return sweep_catalogue() + short_catalogue()


def op_key(argv) -> str:
    return " ".join(argv)
