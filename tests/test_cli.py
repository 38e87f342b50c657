import json
import math
import multiprocessing
import re

import numpy as np
import pytest

from normetry import checks, cli, falsify, serialize
from normetry.errors import ConvergenceFailure, DomainError
from normetry.rand import derive_stream


def run(argv):
    return cli.main(argv)


def test_verify_small_green(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "--checks", "thm1.1,ineq4", "--trials", "10",
         "--dims", "2,3", "--seed", "5", "--verdicts", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["header"]["config"]["command"] == "verify"
    assert all(w["pass"] for w in report["witnesses"])
    assert all(not c["violations"] for c in report["campaigns"])
    assert len(report["verdicts"]) == 20


def test_verify_unknown_check_usage_error(capsys):
    assert run(["verify", "--checks", "nosuch"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_falsify_unknown_check_usage_error(capsys):
    assert run(["falsify", "--check", "nosuch", "--trials", "1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: unknown check 'nosuch'; choose from {', '.join(checks.CHECK_IDS)}\n"
    )


def test_verify_bad_dims_usage_error():
    assert run(["verify", "--checks", "thm1.1", "--dims", "0"]) == cli.EXIT_USAGE


def test_verify_csv_summary(tmp_path):
    out = tmp_path / "summary.csv"
    code = run(
        ["verify", "--checks", "ineq4", "--trials", "5", "--dims", "2",
         "--format", "csv-summary", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check,mutation,trials,violations,min_margin"
    assert lines[1].startswith("ineq4,,5,0,")


def test_falsify_mutation_produces_certificates(tmp_path):
    certs = tmp_path / "certs"
    out = tmp_path / "report.json"
    code = run(
        ["falsify", "--check", "thm1.1", "--mutate", "swap-function-class",
         "--trials", "20", "--cert-dir", str(certs), "--out", str(out)]
    )
    assert code == cli.EXIT_OK  # must-violate campaigns succeed by violating
    files = sorted(certs.glob("cert-*.json"))
    assert files
    report = json.loads(out.read_text())
    assert report["campaign"]["expectation"] == "must-violate"
    assert report["campaign"]["violations"]


def test_falsify_mutation_mismatch():
    code = run(["falsify", "--check", "ineq4", "--mutate", "drop-vanishing"])
    assert code == cli.EXIT_USAGE


def test_replay_roundtrip(tmp_path, capsys):
    certs = tmp_path / "certs"
    run(
        ["falsify", "--check", "thm2.4", "--mutate", "drop-expansive",
         "--trials", "5", "--cert-dir", str(certs), "--out",
         str(tmp_path / "r.json")]
    )
    cert_path = sorted(certs.glob("cert-*.json"))[0]
    assert run(["replay", str(cert_path)]) == cli.EXIT_OK
    assert "match" in capsys.readouterr().out


def test_replay_detects_tampering(tmp_path, capsys):
    certs = tmp_path / "certs"
    run(
        ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing",
         "--trials", "5", "--cert-dir", str(certs), "--out",
         str(tmp_path / "r.json")]
    )
    cert_path = sorted(certs.glob("cert-*.json"))[0]
    cert = json.loads(cert_path.read_text())
    cert["margin"] = cert["margin"] + 0.25
    cert_path.write_text(json.dumps(cert))
    assert run(["replay", str(cert_path)]) == cli.EXIT_VIOLATION
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_unparseable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["replay", str(bad)]) == cli.EXIT_USAGE
    assert "cannot parse" in capsys.readouterr().err


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--kind", "psd", "--dim", "3", "--seed", "9",
                "--out", str(a)]) == cli.EXIT_OK
    assert run(["gen", "--kind", "psd", "--dim", "3", "--seed", "9",
                "--out", str(b)]) == cli.EXIT_OK
    assert a.read_text() == b.read_text()
    payload = json.loads(a.read_text())
    assert payload["n"] == 3 and len(payload["re"]) == 9


def test_gen_unknown_kind():
    assert run(["gen", "--kind", "wishart", "--dim", "3"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_gen_non_finite_scale_is_usage_error(scale, capsys):
    argv = ["gen", "--kind", "psd", "--dim", "2", "--scale", scale]
    assert run(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scale" in captured.err


@pytest.mark.parametrize("argv, label", [
    (["gen", "--kind", "psd", "--dim", "100000000"], ""),
    (["verify", "--checks", "ineq4", "--trials", "1", "--dims", "100000000"],
     "ineq4 trial 0 (n=100000000, seed="),
    (["falsify", "--check", "thm1.2", "--trials", "1", "--dims", "10000000000"],
     "thm1.2 trial 0 (n=10000000000, seed="),
])
def test_a_dimension_too_large_to_allocate_is_a_usage_error(argv, label, capsys):
    """numpy refuses both sizes before allocating anything: 142 PiB at
    n = 10**8, and past the largest array size at n = 10**10.  A campaign
    names the trial that asked for it."""
    assert run(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: " + label)
    assert "is too large to allocate" in captured.err


def write_drop_vanishing_cert(tmp_path):
    certs = tmp_path / "certs"
    run(
        ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing",
         "--trials", "3", "--cert-dir", str(certs), "--out",
         str(tmp_path / "r.json")]
    )
    return json.loads(sorted(certs.glob("cert-*.json"))[0].read_text())


def test_replay_malformed_certificates_are_usage_errors(tmp_path, capsys):
    cert = write_drop_vanishing_cert(tmp_path)
    no_b = json.loads(json.dumps(cert))
    del no_b["case"]["matrices"]["b"]
    list_id = json.loads(json.dumps(cert))
    list_id["case"]["check_id"] = ["x"]
    no_such_mutation = json.loads(json.dumps(cert))
    no_such_mutation["case"]["mutation"] = "nosuch"
    n = cert["case"]["n"]
    mixed_sizes = json.loads(json.dumps(cert))
    mixed_sizes["case"]["matrices"]["b"] = {
        "n": n + 1, "re": [0.0] * (n + 1) ** 2, "im": [0.0] * (n + 1) ** 2
    }
    empty = json.loads(json.dumps(cert))
    empty["case"]["n"] = 0
    for name in empty["case"]["matrices"]:
        empty["case"]["matrices"][name] = {"n": 0, "re": [], "im": []}
    bad_scalars = []
    for check_id, name, values in (("eigen-sum", "j", [1.0, "1", None, True]),
                                   ("ineq5", "m", ["x", 2.5])):
        case = falsify.sample_case(check_id, 3, 7)
        good = falsify.make_certificate(case, falsify.run_case(case))
        for value in values:
            bad = json.loads(json.dumps(good))
            bad["case"]["scalars"][name] = value
            bad_scalars.append(bad)
    for i, bad in enumerate([{"margin": 0.1}, no_b, [1, 2], list_id, no_such_mutation,
                             mixed_sizes, empty, *bad_scalars]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        assert run(["replay", str(path)]) == cli.EXIT_USAGE
        assert "cannot parse certificate" in capsys.readouterr().err


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NORMETRY_SEED", "777")
    parser = cli.build_parser()
    args = parser.parse_args(["gen", "--kind", "psd", "--dim", "2"])
    assert args.seed == 777


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built, real = [], cli.build_parser

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.delenv("NORMETRY_SEED", raising=False)
    cli._parser_for.cache_clear()
    for i in range(5):
        argv = ["gen", "--kind", "psd", "--dim", "2", "--out", str(tmp_path / f"{i}.json")]
        assert run(argv) == cli.EXIT_OK
    assert len(built) == 1


def test_seed_env_is_read_on_every_call(tmp_path, monkeypatch):
    def gen(name, *seed):
        path = tmp_path / name
        assert run(["gen", "--kind", "psd", "--dim", "2", *seed, "--out", str(path)]) == 0
        return path.read_text()

    monkeypatch.delenv("NORMETRY_SEED", raising=False)
    default = gen("default.json")
    monkeypatch.setenv("NORMETRY_SEED", "777")
    from_env = gen("env.json")
    assert from_env == gen("flag.json", "--seed", "777") != default


def test_bad_seed_env_after_a_cached_parser_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NORMETRY_SEED", raising=False)
    argv = ["gen", "--kind", "psd", "--dim", "2", "--out", str(tmp_path / "m.json")]
    assert run(argv) == cli.EXIT_OK
    monkeypatch.setenv("NORMETRY_SEED", "x")
    for _ in range(2):
        assert run(argv) == cli.EXIT_USAGE
        assert "NORMETRY_SEED" in capsys.readouterr().err
    monkeypatch.delenv("NORMETRY_SEED")
    assert run(argv) == cli.EXIT_OK


def test_json_outputs_are_one_sorted_line(tmp_path, monkeypatch):
    """Every report, certificate and matrix is one line of sorted-key JSON
    that parses to what the earlier ``indent=1`` writer's text parses to."""
    argvs = [
        ["verify", "--checks", "thm1.1,cor3.3", "--trials", "4", "--dims", "2,3",
         "--seed", "5", "--out", "{d}/verify.json"],
        ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing", "--trials", "4",
         "--dims", "2,3", "--seed", "5", "--out", "{d}/falsify.json",
         "--cert-dir", "{d}/certs"],
        ["gen", "--kind", "normal", "--dim", "3", "--seed", "5", "--out", "{d}/gen.json"],
    ]

    def indented(obj, path):
        cli._write(json.dumps(obj, sort_keys=True, indent=1) + "\n", path)

    def files(d):
        for argv in argvs:
            assert run([a.format(d=d) for a in argv]) == cli.EXIT_OK
        return {p.relative_to(d): json.loads(p.read_text()) for p in d.rglob("*.json")}

    new_dir, old_dir = tmp_path / "new", tmp_path / "old"
    new_dir.mkdir()
    old_dir.mkdir()
    new = files(new_dir)
    with monkeypatch.context() as m:
        m.setattr(cli, "_write_json", indented)
        old = files(old_dir)
    assert len(new) > 4 and new.keys() == old.keys()
    for name, obj in new.items():
        text = (new_dir / name).read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(obj, sort_keys=True) + "\n"
        for o in (obj, old[name]):
            o.get("header", {}).pop("timestamp", None)
            o.get("campaign", {}).pop("wall_time", None)
        assert obj == old[name], name


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nan_margin_certificate_replays_match(tmp_path, capsys):
    """prop3.4 on diag(0.7e308, 0.7e308, 0.7e308) overflows its Ky Fan 3
    sum on both sides, so that margin is NaN; the certificate stores NaN and
    replays as a match."""
    a = np.diag([0.7e308] * 3).astype(complex)
    case = falsify.Case("prop3.4", 3, None, {"a": a, "b": 0 * a},
                        {"a": "general", "b": "general"}, mutation="drop-normality")
    verdict = falsify.run_case(case)
    assert not verdict.passed and math.isnan(verdict.min_margin)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(falsify.make_certificate(case, verdict)))
    assert run(["replay", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.split()[-1] == "match"


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def test_report_determinism(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code = run(
            ["verify", "--checks", "thm1.2,prop3.4", "--trials", "8",
             "--dims", "2,3", "--seed", "123", "--out", str(p)]
        )
        assert code == cli.EXIT_OK
    a, b = (strip_timestamp(p.read_text()) for p in paths)
    assert a == b


def test_verdict_rows_are_opt_in(tmp_path):
    """A default report has no ``verdicts`` key at all (not an empty list),
    and is the ``--verdicts`` report less that key."""
    argv = ["verify", "--checks", "thm1.1,ineq5,identity6", "--trials", "6",
            "--dims", "1,3", "--seed", "8"]
    lean, full = tmp_path / "lean.json", tmp_path / "full.json"
    assert run(argv + ["--out", str(lean)]) == cli.EXIT_OK
    assert run(argv + ["--verdicts", "--out", str(full)]) == cli.EXIT_OK
    report = json.loads(full.read_text())
    assert len(report.pop("verdicts")) == 3 * 6
    assert "verdicts" not in json.loads(lean.read_text())
    assert strip_timestamp(lean.read_text()) == strip_timestamp(
        json.dumps(report, sort_keys=True) + "\n")


def test_falsify_certificates_carry_run_case_fingerprints(tmp_path):
    """Campaigns fingerprint only the cases they write; a must-violate
    campaign's certificates, in its report and in its files, carry the
    fingerprint that ``run_case`` stamps on the same case."""
    out, certs = tmp_path / "report.json", tmp_path / "certs"
    code = run(["falsify", "--check", "thm2.4", "--mutate", "drop-expansive",
                "--trials", "12", "--dims", "1,2,3", "--seed", "5",
                "--out", str(out), "--cert-dir", str(certs)])
    assert code == cli.EXIT_OK
    violations = json.loads(out.read_text())["campaign"]["violations"]
    files = [json.loads(p.read_text()) for p in sorted(certs.glob("*.json"),
             key=lambda p: int(p.stem.rsplit("-", 1)[1]))]
    assert len(violations) > 1 and files == violations
    for cert in violations:
        case = falsify.case_from_dict(cert["case"])
        assert cert["fingerprint"] == falsify.run_case(case).fingerprint


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` in this process and in the worker
    processes it forks, in a counter they share (a fork context's lock
    needs no resource-tracker process)."""
    calls = multiprocessing.get_context("fork").Value("q", 0)
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_lean_verify_takes_no_fingerprint(monkeypatch, tmp_path):
    """An all-pass ``verify`` hashes no case unless it writes verdict rows,
    and still calls ``run_case`` once per case."""
    fingerprints = count_calls(monkeypatch, serialize, "fingerprint")
    run_cases = count_calls(monkeypatch, falsify, "run_case")
    argv = ["verify", "--checks", "all", "--trials", "3", "--dims", "1,2",
            "--out", str(tmp_path / "r.json")]
    assert run(argv) == cli.EXIT_OK
    assert (fingerprints.value, run_cases.value) == (0, 16 * 3)
    assert run(argv + ["--verdicts"]) == cli.EXIT_OK
    assert (fingerprints.value, run_cases.value) == (16 * 3, 2 * 16 * 3)


def test_missing_subcommand_is_usage():
    assert run([]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--checks", "ineq4", "--dims", "a,b"],
        ["verify", "--checks", "ineq4", "--tol", "nan"],
        ["verify", "--checks", "ineq4", "--tol", "-1"],
        ["verify", "--checks", "ineq4", "--tol", "0"],
        ["verify", "--checks", "ineq4", "--tol", "inf"],
        ["falsify", "--check", "ineq4", "--dims", "2,x"],
        ["falsify", "--check", "ineq4", "--tol", "nan"],
        ["falsify", "--check", "ineq4", "--tol", "-1"],
        ["verify", "--checks", ","],
        ["verify", "--checks", "ineq4,ineq4"],
    ],
)
def test_bad_dims_and_tol_are_usage_errors(argv, capsys):
    assert run(argv + ["--trials", "1"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", "ineq4", "--trials", "1", "--dims", "2",
     "--out", "{file}/r.json"],
    ["verify", "--checks", "ineq4", "--trials", "1", "--dims", "2",
     "--format", "csv-summary", "--out", "{file}/r.csv"],
    ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing", "--trials", "2",
     "--dims", "2", "--cert-dir", "{file}/certs"],
    ["gen", "--kind", "psd", "--dim", "2", "--out", "{file}/m.json"],
])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = [a.format(file=not_a_dir) for a in argv]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {not_a_dir}/")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", "ineq4", "--trials", "1", "--dims", "2",
     "--out", "{file}/r.json"],
    ["verify", "--checks", "ineq4", "--trials", "1", "--dims", "2",
     "--out", "{file}/missing/r.json"],
    ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing", "--trials", "2",
     "--dims", "2", "--out", "{file}/r.json"],
    ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing", "--trials", "2",
     "--dims", "2", "--cert-dir", "{file}/certs"],
])
def test_unwritable_output_fails_before_any_trial(tmp_path, monkeypatch, capsys, argv):
    def no_trials(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(falsify, "run_campaigns", no_trials)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert run([a.format(file=not_a_dir) for a in argv]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {not_a_dir}/")


def test_bad_seed_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("NORMETRY_SEED", "x")
    assert run(["verify", "--checks", "ineq4", "--trials", "1"]) == cli.EXIT_USAGE
    assert "NORMETRY_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("fn", [
    None, 3, "sqrt", [1, 2],
    {"kind": "power", "s": "abc"},
    {"kind": "power-m", "m": "x"},
    {"kind": "pwl-concave", "breakpoints": [[0, 0], ["a", 1]]},
    {"kind": "cone", "weights": 1, "members": []},
    {"kind": ["sqrt"]},
])
def test_replay_bad_fn_is_usage_error(tmp_path, capsys, fn):
    # a null fn for a checker that needs a scalar function, a non-object fn,
    # or a descriptor whose kind or parameters have the wrong type
    cert = write_drop_vanishing_cert(tmp_path)
    cert["case"]["fn"] = fn
    path = tmp_path / "bad-fn.json"
    path.write_text(json.dumps(cert))
    assert run(["replay", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot parse certificate" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error, code",
    [(ConvergenceFailure, cli.EXIT_NUMERICAL), (DomainError, cli.EXIT_USAGE)],
)
def test_failing_trial_is_named(monkeypatch, capsys, error, code):
    real = checks.check_prop_3_4

    def flaky(a, b, **kw):  # a is one matrix or a stack of them
        if a.shape[-1] == 3:
            raise error("planted failure")
        return real(a, b, **kw)

    monkeypatch.setattr(checks, "check_prop_3_4", flaky)
    argv = ["verify", "--checks", "thm1.1,prop3.4", "--trials", "4",
            "--dims", "2,3", "--seed", "11"]
    assert run(argv) == code
    seed = derive_stream(11, 1)
    assert f"prop3.4 trial 1 (n=3, seed={seed}): planted failure" in (
        capsys.readouterr().err
    )


def test_falsify_report_embeds_each_certificate_file_verbatim(tmp_path):
    """Each certificate is encoded once: its file's text is the text inside
    the report, and both are the bytes json.dumps gives the whole objects."""
    out, certs = tmp_path / "report.json", tmp_path / "certs"
    argv = ["falsify", "--check", "thm1.2", "--mutate", "drop-vanishing",
            "--trials", "12", "--dims", "1,2,3", "--seed", "5",
            "--out", str(out), "--cert-dir", str(certs)]
    assert run(argv) == cli.EXIT_OK
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    files = [certs / f"cert-thm1.2-{i}.json"
             for i in range(len(report["campaign"]["violations"]))]
    assert len(files) > 1 and sorted(certs.iterdir()) == sorted(files)
    for path, cert in zip(files, report["campaign"]["violations"]):
        cert_text = path.read_text()
        assert cert_text == json.dumps(cert, sort_keys=True) + "\n"
        assert cert_text[:-1] in text


def test_csv_summary_keeps_no_verdict_rows(monkeypatch, tmp_path):
    """``--verdicts`` adds rows only to a JSON report: with ``--format
    csv-summary`` no case is fingerprinted, and the CSV is the one written
    without ``--verdicts``."""
    calls = count_calls(monkeypatch, serialize, "fingerprint")
    argv = ["verify", "--checks", "all", "--trials", "4", "--dims", "1,2,3",
            "--seed", "3", "--format", "csv-summary"]
    lean, full = tmp_path / "lean.csv", tmp_path / "full.csv"
    assert run(argv + ["--out", str(lean)]) == cli.EXIT_OK
    assert run(argv + ["--verdicts", "--out", str(full)]) == cli.EXIT_OK
    assert calls.value == 0
    assert full.read_bytes() == lean.read_bytes()


@pytest.mark.parametrize("command", [
    ["verify", "--checks", "thm1.1", "--trials", "2", "--dims", "2"],
    ["falsify", "--check", "thm1.1", "--trials", "2", "--dims", "2"],
])
@pytest.mark.parametrize("seed, ok", [(2**63 + 1, False), (-1, False), (0, True),
                                      (2**63 - 1, True)])
def test_root_seeds_outside_their_range_are_usage_errors(
        tmp_path, monkeypatch, capsys, command, seed, ok):
    """A root seed keeps 63 bits, so 2**63 + 1 would run the campaigns of
    seed 1 and -1 those of 2**63 - 1; from --seed or NORMETRY_SEED, such a
    seed is a usage error that names the range."""
    monkeypatch.delenv("NORMETRY_SEED", raising=False)
    out = ["--out", str(tmp_path / "r.json")]
    from_flag = run(command + ["--seed", str(seed)] + out)
    monkeypatch.setenv("NORMETRY_SEED", str(seed))
    from_env = run(command + out)
    err = capsys.readouterr().err
    if ok:
        assert from_flag == from_env == cli.EXIT_OK
    else:
        assert from_flag == from_env == cli.EXIT_USAGE
        assert err.count("--seed (or NORMETRY_SEED) must be in [0, 2**63)") == 2
        assert "Traceback" not in err


@pytest.mark.parametrize("seed, ok", [(2**64, False), (-1, False), (0, True),
                                      (2**64 - 1, True)])
def test_gen_seeds_outside_their_range_are_usage_errors(tmp_path, capsys, seed, ok):
    code = run(["gen", "--kind", "psd", "--dim", "2", "--seed", str(seed),
                "--out", str(tmp_path / "m.json")])
    assert code == (cli.EXIT_OK if ok else cli.EXIT_USAGE)
    assert ok or "--seed (or NORMETRY_SEED) must be in [0, 2**64)" in capsys.readouterr().err


def test_replay_detects_an_operand_moved_by_one_ulp(tmp_path, capsys):
    """The drop-expansive witness (A = I, Z = I/2) keeps its margin of -0.5
    when an entry of A moves by one ulp; the fingerprint tells the moved
    case from the stored one."""
    certs = tmp_path / "certs"
    assert run(["falsify", "--check", "thm2.4", "--mutate", "drop-expansive",
                "--trials", "5", "--seed", "5", "--cert-dir", str(certs),
                "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    path = certs / "cert-thm2.4-0.json"
    assert run(["replay", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.split()[-1] == "match"
    cert = json.loads(path.read_text())
    entries = cert["case"]["matrices"]["a"]["re"]
    entries[0] = math.nextafter(entries[0], math.inf)
    path.write_text(json.dumps(cert))
    assert run(["replay", str(path)]) == cli.EXIT_VIOLATION
    line = capsys.readouterr().out
    assert "stored=-0.5 recomputed=-0.5 fingerprint: stored=" in line
    assert line.split()[-1] == "MISMATCH"


@pytest.mark.parametrize("dims, trials", [("1,2,3,4,5,6,7,8", "5"), ("32,128", "2")])
def test_verify_reports_do_not_depend_on_the_groups(split_groups, tmp_path, dims, trials):
    """The groups of checks (in worker processes where this process may
    fork) give the bytes of one group, outside the timestamp."""
    reports = []
    for split in (True, False):
        split_groups(split)
        out = tmp_path / f"report{len(reports)}.json"
        argv = ["verify", "--verdicts", "--checks", "all", "--seed", "123",
                "--dims", dims, "--trials", trials, "--out", str(out)]
        assert run(argv) == cli.EXIT_OK
        text = out.read_text()
        stamp = json.loads(text)["header"]["timestamp"]
        reports.append(text.replace(json.dumps(stamp), '""', 1))
    assert reports[0] == reports[1]
