import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kbound
from kbound import bounds, cli, verify
from kbound.cli import VERIFY_OPTIONS, _verify_args, build_parser, main

#: sha256 of ``verify all --from 36 --to 2000 --format json --no-timestamp``,
#: the behaviour contract that every speed-up and refactor must keep.
FINGERPRINT_SHA256 = "739feb0f98c158b2edc4dfaed40f7c5576cdd2927f7c1139796ec3e12f4e6c97"

#: sha256 of ``verify all --from 36 --to 120 --no-timestamp`` in the other
#: two formats, which are part of the same contract.
FORMAT_SHA256 = {
    "csv": "90c2a2aba885115b465f83fb0ae0e33e9ab36f795dd7146be9ef20e17f67b006",
    "table": "9b1cad0ad812ffa8993d2d95ddf3481a0e53f988654be6dc894529cc5686f2f1",
}


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
    code, out, _ = run_cli(capsys, "verify", "all", "--from", "36", "--to", "40", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "46cca9343c25152ba83f5a4c292aa19cdd3e17cfdc941fff039becdade811821"
    )


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
def test_a_parser_built_for_the_command_parses_alike(capsys, argv):
    # main builds only the command that argv names; the full tree must give
    # the same namespace, or the same exit code, stdout and stderr
    full = parsed(capsys, build_parser(), argv)
    assert parsed(capsys, build_parser(argv[0] if argv else None), argv) == full


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
    def refuse(command=None):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out, _ = run_cli(capsys, "verify", "r3", "--from", "36", "--to", "40", "--no-timestamp",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("R3.direct,verified,")


def test_verify_run_loads_no_process_pool(tmp_path):
    # -S: no site module, whose .pth files may import either module first.
    src = str(Path(kbound.__file__).resolve().parents[1])
    argv = ["verify", "all", "--from", "36", "--to", "60", "--no-timestamp",
            "--out", str(tmp_path / "r.txt")]
    code = (
        "import sys, kbound.cli\n"
        f"assert kbound.cli.main({argv!r}) == 0\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_verify_all_fingerprint():
    src = str(Path(kbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kbound", "verify", "all", "--from", "36", "--to", "2000",
         "--format", "json", "--no-timestamp"],
        capture_output=True,
        env=env,
        check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == FINGERPRINT_SHA256


@pytest.mark.parametrize("fmt", sorted(FORMAT_SHA256))
def test_verify_all_format_pin(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "verify", "all", "--from", "36", "--to", "120", "--no-timestamp", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[fmt]


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
