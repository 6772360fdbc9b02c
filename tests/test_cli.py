import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kbound
from kbound import bounds, cli, verify
from kbound.cli import VERIFY_OPTIONS, _verify_args, build_parser, main
from test_cli_pins import PINS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# bound ------------------------------------------------------------------------

def test_bound_castelnuovo_table(capsys):
    code, out, _ = run_cli(capsys, "bound", "castelnuovo", "--r", "5", "--d", "18")
    assert code == 0
    assert "bound          28" in out


def test_bound_pi2_with_profile(capsys):
    code, out, _ = run_cli(capsys, "bound", "pi2", "--d", "31")
    assert code == 0
    assert "87" in out
    assert "4 9 14 19 24 29 31" in out


def test_bound_halphen_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "halphen", "--d", "10", "--s", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "16"
    assert payload["is_integer"] is True
    assert payload["params"] == {"s": 2, "m": 4, "eps": 1}


def test_bound_floor_flag(capsys):
    code, out, _ = run_cli(capsys, "bound", "halphen", "--d", "22", "--s", "4", "--floor")
    assert code == 0
    assert "bound    60" in out


def test_bound_propagate(capsys):
    code, out, _ = run_cli(capsys, "bound", "propagate", "--seed", "4,9,16", "--d", "31", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_id"] == "propagated"
    assert payload["profile"]["prefix"][:4] == [4, 9, 16, 19]


@pytest.mark.parametrize("seed", ["a,b,c", "4,9,x", "4;9;16", ""])
def test_bound_propagate_names_a_seed_that_is_not_integers(capsys, seed):
    code, out, err = run_cli(capsys, "bound", "propagate", "--seed", seed, "--d", "20")
    assert (code, out) == (2, "")
    assert err == f"error: --seed must be three comma-separated integers, got {seed!r}\n"


def test_bound_out_of_domain_exit_code(capsys):
    code, _, err = run_cli(capsys, "bound", "halphen", "--d", "6", "--s", "3")
    assert code == 2
    assert "error:" in err


def test_bound_csv_header(capsys):
    code, out, _ = run_cli(capsys, "bound", "pi1", "--d", "33", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "formula,d,bound,floor,is_integer,params"
    assert lines[1].startswith("pi1,33,120,120,True")


def test_bound_range_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "castelnuovo", "--r", "5", "--d", "18", "--d-to", "21",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + four degrees
    assert lines[1].startswith("castelnuovo,18,28")
    assert lines[4].startswith("castelnuovo,21,40")


@pytest.mark.parametrize("kind, extra", [("castelnuovo", ("--r", "5")), ("pi1", ()), ("pi2", ())])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_bound_range_builds_no_profile(capsys, monkeypatch, kind, extra, fmt):
    # a range prints no profile, so it must not build an O(d) one per degree
    def no_profile(*args):
        raise AssertionError("profile built for a range")

    for name in ("castelnuovo_profile", "pi1_profile", "pi2_profile"):
        monkeypatch.setattr(bounds, name, no_profile)
    code, out, _ = run_cli(capsys, "bound", kind, *extra, "--d", "18", "--d-to", "60", "--format", fmt)
    assert code == 0
    assert "60" in out


# scroll ------------------------------------------------------------------------

def test_scroll_extremal(capsys):
    code, out, _ = run_cli(capsys, "scroll", "extremal", "--d", "18")
    assert code == 0
    assert "alpha  9" in out and "beta   -9" in out
    assert "k2     -216" in out and "genus  28" in out


def test_scroll_extremal_odd_degree_fails(capsys):
    code, _, err = run_cli(capsys, "scroll", "extremal", "--d", "19")
    assert code == 2


def test_scroll_scan_covers_full_range(capsys):
    code, out, _ = run_cli(capsys, "scroll", "scan", "--d", "18", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["a"] for row in rows] == list(range(-5, 4))
    assert rows[-1]["extremal"] is True
    assert rows[-1]["k2"] == -216


def test_scroll_scan_csv_header(capsys):
    code, out, _ = run_cli(capsys, "scroll", "scan", "--d", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "d,a,alpha,beta,degree,k2,genus,admissible,extremal"


def test_scroll_class_inadmissible(capsys):
    code, out, _ = run_cli(capsys, "scroll", "class", "--alpha", "1", "--beta", "0")
    assert code == 0
    assert "inadmissible" in out
    assert "degree 3 < 4" in out


def test_scroll_minimize(capsys):
    code, out, _ = run_cli(capsys, "scroll", "minimize", "--d", "19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k2_min"] == -72 and payload["a_min"] == 2
    assert payload["k2_min_closed_form"] == "-72"


# verify ------------------------------------------------------------------------

def test_verify_appendix_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "appendix", "--from", "18", "--to", "120")
    assert code == 0
    assert "APPENDIX.min  verified" in out
    assert "overall: verified" in out


def test_verify_r5_below_range_warns_but_exits_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "r5", "--from", "10", "--to", "20")
    assert code == 0
    assert "out-of-asserted-range" in out
    assert "warning" in err


def test_verify_all_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all", "--from", "36", "--to", "60",
        "--format", "json", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert "generated_at" not in payload
    assert len(payload["certificates"]) == 21


def test_verify_json_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "r3", "--format", "json")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "r6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "claim_id,status,params,witness"


def test_verify_csv_renders_no_json_documents(capsys, monkeypatch):
    # csv rows read the certificate fields, not the rendered JSON document
    import kbound.verify as verify

    def refuse(self):
        raise AssertionError("csv output rendered a JSON document")

    monkeypatch.setattr(verify.Certificate, "to_json_dict", refuse)
    argv = "verify all --from 36 --to 40 --format csv"
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]


@pytest.mark.parametrize(
    "case", ["all", "r2", "r3", "r4", "r5", "r6", "appendix", "sharpness"]
)
def test_verify_empty_range_exit_code(capsys, case):
    code, out, err = run_cli(capsys, "verify", case, "--from", "50", "--to", "40")
    assert code == 2
    assert out == ""
    assert err == "error: empty degree range\n"


def test_verify_rejects_jobs(capsys):
    # there is no --jobs option: argparse's unknown-option path, exit code 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "r3", "--jobs", "2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


PARSED_ARGVS = [
    [], ["-h"], ["--format", "json"], ["nope"], ["verify"], ["verify", "-h"], ["verify", "r9"],
    ["verify", "all", "--from", "36", "--to", "40", "--format", "csv", "--no-timestamp"],
    ["verify", "r3", "--from", "x"], ["verify", "r3", "--jobs", "2"], ["verify", "r3", "--fr", "36"],
    ["verify", "r3", "--to=40"], ["verify", "--to", "40", "r3"], ["verify", "r3", "--from", "-5"],
    ["verify", "r3", "--out"], ["verify", "r6", "--to", "80", "--no-timestamp", "--to", "90"],
    ["verify", "r3", "--format", "xml"], ["verify", "r3", "--out", "-x"], ["verify", "r3", "--", "36"],
    ["verify", "r3", "--out", "--no-timestamp"],
    ["bound"], ["bound", "-h"], ["bound", "pi2", "-h"], ["bound", "pi2", "--d", "18", "--floor"],
    ["bound", "castelnuovo", "--d", "18"], ["bound", "propagate", "--seed", "4,9,16", "--d", "20", "--d-to", "30"],
    ["scroll"], ["scroll", "-h"], ["scroll", "class", "-h"], ["scroll", "class", "--alpha", "3", "--beta", "-3"],
    ["scroll", "minimize", "--d", "40", "--format", "table", "--out", "o.txt"], ["scroll", "scan"],
]


def parsed(capsys, parser, argv):
    """The namespace parser gives argv, or its exit code and output."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=" ".join)
def test_a_parser_built_for_the_command_parses_alike(capsys, monkeypatch, argv):
    # main reads argv with _verify_args, or else with the parser it builds:
    # its command runs with that parser's namespace, or main exits with the
    # parser's exit code, stdout and stderr
    ran = []
    for name in ("_cmd_bound", "_cmd_scroll", "_cmd_verify"):
        monkeypatch.setattr(cli, name, ran.append)
    full = parsed(capsys, build_parser(), argv)
    try:
        main(argv)
    except SystemExit as exc:
        assert (exc.code, *capsys.readouterr()) == full
    else:
        assert [vars(args) for args in ran] == [vars(full)]


def argparse_reads(argv):
    """vars() of the namespace the full parser gives argv, or its exit code."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", PARSED_ARGVS, ids=" ".join)
def test_the_verify_reader_gives_argparses_namespace_or_none(capsys, argv):
    args = _verify_args(argv)
    assert args is None or vars(args) == argparse_reads(argv)


def _declared_option(flag):
    """flag spelled as declared, with a value that it takes."""
    spec = VERIFY_OPTIONS[flag]
    if "action" in spec:
        return st.just((flag,))
    if "choices" in spec:
        return st.tuples(st.just(flag), st.sampled_from(spec["choices"]))
    values = st.integers(0, 3000).map(str) if spec.get("type") is int else st.sampled_from(["o.txt", "", "r3"])
    return st.tuples(st.just(flag), values)


DECLARED_OPTION = st.sampled_from(list(VERIFY_OPTIONS)).flatmap(_declared_option)
#: Tokens that argparse alone takes or refuses: abbreviations, "=", help, "--",
#: an unknown flag, and values that are negative, not numbers or not choices.
ODD_FLAGS = ["--fr", "--t", "--form", "--no-time", "--o", "--from=40", "--format=csv",
             "-h", "--help", "--", "--jobs"]
ODD_VALUES = ["+37", " 38", "3_9", "-5", "-x", "x", "", "1e3", "xml", "-", "all", "--to"]
ODD_OPTION = st.one_of(
    st.tuples(st.sampled_from(list(VERIFY_OPTIONS)), st.sampled_from(ODD_VALUES)),
    st.tuples(st.sampled_from(ODD_FLAGS), st.sampled_from(["36", *ODD_VALUES])),
    st.tuples(st.sampled_from([*VERIFY_OPTIONS, *ODD_FLAGS])),  # alone, or missing its value
)


@given(
    case=st.sampled_from(["all", *verify.CASES, "r9"]),
    options=st.lists(DECLARED_OPTION, max_size=6),  # a repeated flag takes the last value
    odd=st.none() | st.tuples(st.integers(1, 14), ODD_OPTION),  # index 1 is before the case
)
def test_the_verify_reader_agrees_with_argparse(case, options, odd):
    # the reader either declines (None) or gives exactly argparse's namespace,
    # so argparse accepts every argv that the reader accepts
    argv = ["verify", case, *(t for option in options for t in option)]
    if odd is not None:
        argv[odd[0]:odd[0]] = odd[1]  # past the end, a trailing token
    args = _verify_args(argv)
    assert args is None or vars(args) == argparse_reads(argv)


def test_a_plain_verify_argv_is_read_without_argparse(capsys, monkeypatch):
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run_cli(capsys, "verify", "r3", "--from", "36", "--to", "40", "--no-timestamp",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("R3.direct,verified,")


def test_verify_run_loads_no_process_pool(tmp_path):
    # -S: no site module, whose .pth files may import any of these modules first. Each case of
    # the short workload, and each bound and scroll command that prints a rational, runs once in
    # each format, and none loads a process pool or fractions, with its decimal and numbers.
    src = str(Path(kbound.__file__).resolve().parents[1])
    commands = [["verify", case, "--from", "36", "--to", "120", "--no-timestamp"]
                for case in ("all", "r4", "r5", "r6", "appendix", "sharpness")]
    commands += [c.split() for c in ("bound pi2 --d 2 --d-to 50", "bound pi2 --d 40", "bound halphen --s 4 --d 40",
                                     "bound propagate --seed 4,9,16 --d 40", "scroll minimize --d 40")]
    runs = [[*argv, "--format", fmt, "--out", str(tmp_path / f"{i}.{fmt}")]
            for i, argv in enumerate(commands) for fmt in ("json", "csv", "table")]
    code = (
        "import sys, kbound.cli\n"
        f"assert [kbound.cli.main(argv) for argv in {runs!r}] == [0] * {len(runs)}\n"
        "print(sorted({'concurrent.futures', 'multiprocessing', 'fractions', 'decimal', 'numbers'}"
        " & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_verify_all_fingerprint():
    # the behaviour fingerprint, from a process rather than from cli.main
    argv = "verify all --from 36 --to 2000 --format json --no-timestamp"
    src = str(Path(kbound.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kbound", *argv.split()],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[argv]


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_verify_all_format_pin(capsys, fmt):
    # the fingerprint's range cut to [36, 120], in the other two formats
    argv = f"verify all --from 36 --to 120 --no-timestamp --format {fmt}"
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[argv]


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "r4", "--from", "36", "--to", "60",
        "--format", "json", "--no-timestamp", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["certificates"]) == 5


def _file_size_limit(limit: int):
    def apply():
        import resource
        import signal

        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # fail the write with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    return apply


def test_failed_out_write_keeps_the_earlier_file(tmp_path):
    # A file size limit below the report's size makes the write fail partway,
    # as a full disk would: the earlier report must survive whole, no temp
    # file may be left, and the exit code is 3.
    pytest.importorskip("resource")
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    src = str(Path(kbound.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "kbound", "verify", "r4", "--from", "36", "--to", "60",
         "--format", "json", "--no-timestamp", "--out", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        preexec_fn=_file_size_limit(1024),
    )
    assert proc.returncode == 3, proc.stderr
    assert "i/o error" in proc.stderr
    assert target.read_text() == "earlier report\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_writes_through_symlinks_and_devices(tmp_path):
    # --out replaces the file a symlink names, keeping the link and the
    # file's mode, and writes straight to a device such as /dev/stdout,
    # which has no file to replace.
    src = str(Path(kbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "kbound", "bound", "pi1", "--d", "33"]
    expected = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
    real = tmp_path / "real.txt"
    real.write_text("earlier\n")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    subprocess.run(argv + ["--out", str(link)], env=env, check=True)
    assert link.is_symlink()
    assert real.read_bytes() == expected
    assert real.stat().st_mode & 0o777 == 0o640
    if os.path.exists("/dev/stdout"):
        proc = subprocess.run(argv + ["--out", "/dev/stdout"], capture_output=True, env=env, check=True)
        assert proc.stdout == expected


def test_out_to_dev_stdout_appends_to_a_redirected_file(tmp_path):
    # With stdout sent to a regular file, /dev/stdout leads to that file:
    # the report is added after what is already there, not written over it.
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    src = str(Path(kbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "kbound", "bound", "pi1", "--d", "33"]
    expected = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
    log = tmp_path / "log.txt"
    log.write_bytes(b"header\n")
    with open(log, "ab") as fh:
        subprocess.run(argv + ["--out", "/dev/stdout"], stdout=fh, env=env, check=True)
    assert log.read_bytes() == b"header\n" + expected
    assert list(tmp_path.iterdir()) == [log]


def test_verify_io_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "r3", "--out", "/nonexistent-dir/report.json",
    )
    assert code == 3
    assert "i/o error" in err


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    # exit status must reflect certificate statuses exactly
    import kbound.verify as verify

    broken = verify.Certificate(
        claim_id="R3.direct",
        params={},
        status="counterexample",
        witness={"failed_check": "synthetic", "d": 7},
    )
    monkeypatch.setattr(verify, "verify_r3", lambda: broken)
    code, out, _ = run_cli(capsys, "verify", "r3")
    assert code == 1
    assert "overall: FAILED" in out


def test_cli_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kbound", "bound", "castelnuovo", "--r", "5", "--d", "21"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "40" in proc.stdout


# the process entry --------------------------------------------------------------

def _process_env(unbuffered):
    """The environment of a kbound process. PYTHONUNBUFFERED is dropped unless
    unbuffered, so that stdout reaches the OS only through the process entry's flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(kbound.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _module_run(*argv, prelude="", unbuffered=False, **kwargs):
    """``python -m kbound ARGV`` through runpy, after the lines of prelude."""
    code = (
        f"import runpy, sys\n{prelude}"
        f"sys.argv = ['kbound', *{list(argv)!r}]\n"
        "runpy.run_module('kbound', run_name='__main__', alter_sys=True)\n"
    )
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-c", code], env=_process_env(unbuffered), **kwargs)


def test_run_ends_the_process_with_mains_code():
    # Nothing after run executes: the process ends inside it, with main's code.
    src = str(Path(kbound.__file__).resolve().parents[1])
    for argv, exit_code in [(["bound", "pi1", "--d", "33"], 0), (["verify", "r3", "--from", "50", "--to", "40"], 2),
                            (["verify", "r3", "--out", "/nonexistent/dir/r.json"], 3)]:
        code = f"import sys, kbound.cli\nkbound.cli.run({argv!r})\nsys.stderr.write('after run\\n')\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == exit_code
        assert b"after run" not in proc.stderr


def test_every_process_entry_calls_run():
    package = Path(kbound.__file__).resolve().parent
    assert (package / "__main__.py").read_text() == "from .cli import run\n\nraise SystemExit(run())\n"
    assert (package / "cli.py").read_text().endswith(
        'if __name__ == "__main__":\n    raise SystemExit(run())\n'
    )
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert '[project.scripts]\nkbound = "kbound.cli:run"\n' in text
    else:
        assert tomllib.loads(text)["project"]["scripts"] == {"kbound": "kbound.cli:run"}


@pytest.mark.parametrize(
    "argv, exit_code, stderr",
    [
        (["verify", "r4", "--from", "36", "--to", "60", "--no-timestamp"], 0, ""),
        (["verify", "r4", "--from", "50", "--to", "40"], 2, "error: empty degree range\n"),
        (["verify", "r4", "--out", "/nonexistent/dir/r.json"], 3,
         "i/o error: [Errno 2] No such file or directory: '/nonexistent/dir/r.json'\n"),
        # several buffers of output: the json document is 68.7 KB
        *[(["verify", "all", "--from", "1500", "--to", "1699", "--no-timestamp", "--format", fmt], 0, "")
          for fmt in ("json", "csv", "table")],
    ],
)
def test_a_process_exits_as_main_returns(capsys, argv, exit_code, stderr):
    # The process entry's flush writes stdout, so the bytes equal main's.
    code, out, err = run_cli(capsys, *argv)
    proc = _module_run(*argv)
    assert (proc.returncode, code) == (exit_code, exit_code)
    assert proc.stdout == out.encode()
    assert proc.stderr.decode() == err == stderr


def test_a_process_writes_its_out_file_as_main_writes_stdout(tmp_path, capsys):
    argv = ["verify", "all", "--from", "36", "--to", "120", "--no-timestamp", "--format", "json"]
    _, out, _ = run_cli(capsys, *argv)
    proc = _module_run(*argv, "--out", str(tmp_path / "r.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "r.json").read_bytes() == out.encode()


def test_a_process_runs_its_atexit_handlers():
    # Fails if the process entry skips the atexit handlers.
    prelude = "import atexit\natexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
    proc = _module_run("verify", "r3", "--from", "36", "--to", "40", "--no-timestamp", prelude=prelude)
    assert proc.returncode == 0
    assert proc.stderr == b"atexit ran\n"
    assert proc.stdout.endswith(b"overall: verified\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_leaves_no_unclosed_file(tmp_path, capsys, fmt):
    # A process that ends through os._exit never collects, so it would not
    # report a file that only a reference cycle holds: the --out path is
    # checked here, in a process that collects.
    target = tmp_path / "r.out"
    target.write_text("earlier report\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "verify", "all", "--from", "36", "--to", "60",
                               "--format", fmt, "--no-timestamp", "--out", str(target))
        gc.collect()
    assert (code, out) == (0, "")
    assert target.read_text() != "earlier report\n"
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _closed_pipe():
    """A pipe's write end whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "r3", "--no-timestamp"], ["bound", "pi1", "--d", "33"]],
                         ids=["verify", "bound"])
@pytest.mark.parametrize("target, message", [
    ("/dev/full", b"i/o error: [Errno 28] No space left on device\n"),
    (None, b"i/o error: [Errno 32] Broken pipe\n"),
], ids=["full", "closed-pipe"])
def test_a_stdout_that_cannot_be_written_exits_3(argv, target, message, unbuffered):
    # A small output stays in the buffer until the process entry flushes it,
    # unless PYTHONUNBUFFERED writes it at once; either way one line, exit 3.
    if target is not None and not os.path.exists(target):
        pytest.skip(f"no {target}")
    fd = os.open(target, os.O_WRONLY) if target else _closed_pipe()
    try:
        proc = _module_run(*argv, unbuffered=unbuffered, stdout=fd)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr) == (3, message)


def test_a_closed_stdout_exits_3():
    src = str(Path(kbound.__file__).resolve().parents[1])
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m kbound verify r3 --no-timestamp >&-', sys.executable],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (3, b"i/o error: [Errno 9] Bad file descriptor\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, exit_code", [
    ("verify r4 --from 50 --to 40", 2),  # the error line
    ("verify r5 --from 10 --to 20 --no-timestamp", 0),  # the out-of-range warning
    ("verify r3 --no-timestamp >/dev/full", 3),  # the failed write's line, from main or from run's flush
], ids=["error", "warning", "full-stdout"])
@pytest.mark.parametrize("stderr", ["2>&-", "2>/dev/full"], ids=["closed", "full"])
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(argv, exit_code, stderr, unbuffered):
    # kbound's own stderr lines are dropped, not raised, when stderr is closed
    # (sys.stderr is None) or refuses the write
    if "/dev/full" in argv + stderr and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m kbound {argv} {stderr}', sys.executable],
                          capture_output=True, env=_process_env(unbuffered))
    assert (proc.returncode, proc.stderr) == (exit_code, b"")
