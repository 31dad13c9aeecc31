import argparse
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from bellmanlab import bellman as bm
from bellmanlab import cli
from bellmanlab import planar as pl
from bellmanlab.cli import build_parser, main
from bellmanlab.reporting import CHECK_REGISTRY, CheckResult, RunReport

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden_suite_fast_seed1.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def entries_of(out):
    return {e["check_id"]: e for e in json.loads(out)["entries"]}


def test_tau_value(capsys):
    code, out, _ = run_cli(capsys, "bellman", "tau", "--p", "2", "--format", "json")
    entry = entries_of(out)["bellman.tau-quadrature"]
    # quadrature matches the closed form, which is 2^(-1/2) at p = 2
    assert entry["target"] is not None and entry["detail"] == "p in [2, 2]"
    assert entry["value"] <= 1e-10 and entry["passed"]
    assert bm.tau_closed_form(2.0) == pytest.approx(2 ** -0.5, abs=1e-15)
    assert code == 0


def test_csv_output_shape(capsys):
    code, out, _ = run_cli(capsys, "laminate", "sweep", "--p", "3",
                           "--etas", "1e-1,1e-2,1e-3")
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == ["check_id", "value", "target", "tolerance",
                                 "passed", "detail"]
    rows = list(reader)
    # smallest eta above 2e-4: the limit is reported without a target
    assert [(r["check_id"], r["target"], r["detail"]) for r in rows] == [
        ("laminate.ratio-limit", "None", "eta=0.001"),
        ("laminate.ratio-monotone", "0.0", "sweep 0.1,0.01,0.001"),
    ]
    assert all(r["passed"] == "1" for r in rows)
    assert code == 0


def sweep_limit(capsys, etas):
    code, out, _ = run_cli(capsys, "laminate", "sweep", "--p", "3",
                           "--etas", etas, "--format", "json")
    return code, entries_of(out)["laminate.ratio-limit"]


def test_sweep_limit_checked_at_small_eta(capsys):
    code, limit = sweep_limit(capsys, "1e-2,1e-4")
    assert limit["target"] is not None and limit["detail"] == "eta=0.0001"
    assert limit["value"] <= 5e-3 and limit["passed"]
    assert code == 0


def test_sweep_limit_ignores_eta_order(capsys):
    code, limit = sweep_limit(capsys, "1e-4,1e-2")
    assert (limit["target"], limit["detail"], limit["passed"]) == (0.0, "eta=0.0001", True)
    assert code == 0


def test_unknown_subcommand_usage_error():
    assert main(["bellman", "nonsense"]) == 2


def test_bad_weight_spec_usage_error(capsys):
    code, _, err = run_cli(capsys, "dyadic", "buckley", "--weight", "wavelet:3")
    assert code == 2
    assert "unknown weight spec" in err


def test_buckley_rejects_file_weight(tmp_path, capsys):
    # a file holds one depth; the bounded-increment check needs several
    path = tmp_path / "w.txt"
    path.write_text("\n".join(["1.0"] * 2 ** 8))
    code, out, err = run_cli(capsys, "dyadic", "buckley", "--weight", f"file:{path}")
    assert code == 2 and out == ""
    assert "one depth" in err


def test_empty_weight_file_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, err = run_cli(capsys, "dyadic", "mt-ratio", "--weight", f"file:{path}")
    assert code == 2 and out == ""
    assert err == f"error: weight file {str(path)!r} holds no samples\n"


@pytest.mark.parametrize("samples", ["nan 1 1 1", "inf 1 1 1"])
def test_weight_file_sample_that_is_not_finite_is_usage_error(tmp_path, capsys, samples):
    # nan exited 1 on a NaN envelope entry; inf warned, then blamed the sign
    path = tmp_path / "w.txt"
    path.write_text("\n".join(samples.split()))
    code, out, err = run_cli(capsys, "dyadic", "mt-ratio", "--weight", f"file:{path}",
                             "--depth", "2")
    assert (code, out, err) == (2, "", "error: --weight must be finite\n")


@pytest.mark.parametrize("argv", [
    ("dyadic", "mt-ratio", "--weight", "file:{missing}"),
    ("planar", "norm-ascent", "--n", "8", "--iters", "3", "--witness", "{missing}"),
])
def test_path_in_a_missing_directory_is_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing" / "field.txt")
    code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("stoch", "constants", "--trials", "0"), "trials=0"),
    (("stoch", "constants", "--trials", "0.5"), "trials=0"),
    (("stoch", "riemann-gap", "--paths", "0"), "paths=0"),
    (("stoch", "riemann-gap", "--steps", "0"), "steps=0"),
    (("stoch", "ab-mc", "--bins", "0"), "bins=0"),
])
def test_monte_carlo_on_no_samples_is_usage_error(capsys, argv, message):
    # no check may pass on an empty sample, nor crash on one
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "dyadic mt-ratio --depth -3",
    "planar norm-ascent --n 0",
    "planar ap --n 0",
    "planar identity113 --n 0",
    "qc weight --n 0",
    "bellman zigzag --samples 0",
    "bellman interp-sweep --points 0",
    "planar ap --n 1",
    "qc weight --n 1",
    "planar identity113 --n 1",
    "planar norm-ascent --n 1",
    # one Simpson node would leave the t-integral a single sample
    "planar identity113 --nt 0",
    "planar identity113 --nt 1",
    # flags that the operation does not read are refused too
    "bellman jn --samples 0",
    "qc distortion --n 0",
])
def test_size_flag_below_its_least_value_is_usage_error(capsys, argv):
    # refused before the builder runs: no crash, no raw numpy message, and
    # no check that passes on a one-point grid
    code, out, err = run_cli(capsys, *argv.split())
    flag = argv.split()[2]
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # each of these ran before: the first exited 0 on a NaN ratio-limit
    # entry, the next two 1 on failing checks, the fourth 3 on a division
    "laminate ratio --p nan",
    "planar norm-ascent --p nan --n 8",
    "stoch constants --p nan",
    "laminate ratio --p inf",
    "laminate ratio --p=-inf",
    "bellman zigzag --samples nan",
    # floats parsed out of string flags: the first two exited 1 on NaN
    # entries, the third warned and then blamed the weight's sign
    "laminate sweep --etas 1e-1,nan",
    "dyadic mt-ratio --weight power:nan --depth 6",
    "dyadic mt-ratio --weight twovalue:inf,1 --depth 6",
    "dyadic buckley --weight power:inf",
])
def test_float_flag_that_is_not_finite_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    flag = argv.split()[2].partition("=")[0]
    assert (code, out, err) == (2, "", f"error: {flag} must be finite\n")


@pytest.mark.parametrize("tmax", ["0", "-1", "0.25", "0.1"])
def test_identity113_tmax_not_above_t_min_is_usage_error(capsys, tmax):
    # t_min = (8/16)^2 = 0.25: these reported nan, or 0.363 integrated backwards
    code, out, err = run_cli(capsys, "planar", "identity113", "--n", "16", f"--tmax={tmax}")
    assert (code, out) == (2, "")
    assert err == f"error: need tmax > t_min = (L/N)^2 = 0.25, got {float(tmax):g}\n"


def test_config_value_that_is_not_finite_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = inf\n")
    code, out, err = run_cli(capsys, "laminate", "ratio", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: --eta must be finite\n")


# one bad input per operation and one for `suite`: the flags, the exit code
# and the one line on stderr.  `--iters` is not among them: each rung of the
# ascent runs at least 10 iterations, an engine rule that the help states.
BAD_INPUTS = {
    ("dyadic", "buckley"): ("--weight wavelet:3", 2, "error: unknown weight spec 'wavelet:3'"),
    ("dyadic", "mt-ratio"): ("--p 1.5", 2, "error: ascent is set up for p >= 2"),
    ("bellman", "zigzag"): ("--samples 0", 2, "error: --samples must be at least 1, got 0"),
    ("bellman", "tau"): ("--p 0", 2, "error: p must be positive"),
    ("bellman", "interp-sweep"): (
        "--qmin 1", 2, "error: q must be >= 2; pass the dual exponent instead"),
    ("bellman", "jn"): ("--delta 1", 2, "error: delta must lie in (0, 1)"),
    ("planar", "norm-ascent"): ("--p 1.5 --n 8", 2, "error: ascent is set up for p >= 2"),
    ("planar", "identity113"): ("--nt 1", 2, "error: --nt must be at least 3, got 1"),
    ("planar", "ap"): ("--n 1", 2, "error: --n must be at least 2, got 1"),
    ("laminate", "ratio"): ("--p 1", 2, "error: need p + eta > 2"),
    ("laminate", "sweep"): (
        "--etas 1e-1,x", 2, "error: could not convert string to float: 'x'"),
    ("laminate", "check"): (
        "--p 2 --eta 0.01", 3, "numeric error: ray integral does not converge fast enough"),
    ("stoch", "riemann-gap"): ("--steps 0", 2, "error: steps=0; need at least 1"),
    ("stoch", "ab-mc"): (
        "--paths 1", 2, "error: paths=1 per bin; a standard error needs at least 2"),
    ("stoch", "constants"): (
        "--p 1.5", 2, "error: p=1.5: the conformal ceiling needs p > 2"),
    ("qc", "distortion"): ("--K 0.5", 2, "error: K must be >= 1"),
    ("qc", "sobolev"): ("--K 0.5", 2, "error: K must be >= 1"),
    ("qc", "weight"): ("--n 1", 2, "error: --n must be at least 2, got 1"),
    ("suite", "fast"): ("--workers 0", 2, "error: --workers must be at least 1, got 0"),
}
# further refusals of the same operations: a skip list that names no
# experiment, or every one, ran the rest or nothing and exited 0; a
# negative start time ran a path from t < 0; and an empty interval passed
# both of its gates by comparing 0 with 0
MORE_BAD_INPUTS = {
    ("suite", "fast"): [
        ("--skip nosuch," + ",".join(n for n in cli.suite.EXPERIMENTS if n != "qc"),
         2, "error: skip names no experiment: nosuch"),
        ("--skip " + ",".join(cli.suite.EXPERIMENTS), 2,
         "error: skip leaves no experiment to run"),
    ],
    ("stoch", "riemann-gap"): [("--a -1 --b 1", 2, "error: a=-1, b=1; need 0 <= a < b"),
                               ("--a 0.5 --b 0.5", 2, "error: a=0.5, b=0.5; need 0 <= a < b")],
}


@pytest.mark.parametrize("command", [*cli.OPERATIONS, ("suite", "fast")],
                         ids=" ".join)
def test_every_operation_refuses_its_bad_input(capsys, command):
    # a KeyError here means an operation was added without a row
    for flags, expected_code, line in [BAD_INPUTS[command],
                                       *MORE_BAD_INPUTS.get(command, ())]:
        code, out, err = run_cli(capsys, *command, *flags.split())
        assert (code, out, err) == (expected_code, "", line + "\n"), flags


def flag_choices(module, flag):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[module]._actions
                if flag in a.option_strings)


def test_every_zigzag_variant_runs(capsys):
    for variant in flag_choices("bellman", "--variant"):
        code, _, err = run_cli(capsys, "bellman", "zigzag", "--variant", variant,
                               "--samples", "2000")
        assert code in (0, 1), (variant, err)


def test_ab_mc_with_fewer_than_two_paths_per_bin_is_usage_error(capsys):
    for paths in ("0", "1"):
        code, out, err = run_cli(capsys, "stoch", "ab-mc", "--paths", paths)
        assert code == 2 and out == "", paths
        assert "at least 2" in err


def test_constants_below_p_two_is_usage_error(capsys):
    # no conformal ceiling below p = 2: the flag is refused, not crashed on
    code, out, err = run_cli(capsys, "stoch", "constants", "--p", "1.5",
                             "--trials", "200")
    assert code == 2 and out == ""
    assert "p > 2" in err


def test_numeric_failures_exit_3(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "laminate", "check", "--p", "2", "--eta", "0.01")
    assert code == 3 and out == ""
    assert "does not converge" in err
    # a threshold that never diverges leaves the bisection without a bracket
    monkeypatch.setattr(cli.suite.qcmaps, "sobolev_threshold",
                        lambda m, q: {"bounded": True})
    code, out, err = run_cli(capsys, "qc", "sobolev")
    assert code == 3 and out == ""
    assert "q_hi still convergent" in err


@pytest.mark.parametrize("argv, callee, line", [
    ("planar norm-ascent --n 384 --iters 200", "power_ascent",
     "error: grid size must be a power of two"),
    ("qc weight --K 2 --p 4.5 --n 512", "ap_class", "error: need 2 <= p < 1 + 1/k = 4.0"),
], ids=["norm-ascent", "weight"])
def test_bad_input_is_refused_before_the_expensive_call(capsys, monkeypatch, argv,
                                                         callee, line):
    def reached(*args, **kwargs):
        raise AssertionError(f"{callee} ran before the input was refused")

    monkeypatch.setattr(pl, callee, reached)
    assert run_cli(capsys, *argv.split()) == (2, "", line + "\n")


@pytest.mark.parametrize("argv, module, callee", [
    ("suite fast --output {missing}", cli, "run_suite"),
    ("planar norm-ascent --witness {missing}", pl, "power_ascent"),
], ids=["suite-output", "norm-ascent-witness"])
def test_path_in_a_missing_directory_is_refused_before_the_run(tmp_path, capsys,
                                                               monkeypatch, argv,
                                                               module, callee):
    def reached(*args, **kwargs):
        raise AssertionError(f"{callee} ran before the path was refused")

    monkeypatch.setattr(module, callee, reached)
    missing = str(tmp_path / "missing" / "out.txt")
    line = f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert run_cli(capsys, *argv.format(missing=missing).split()) == (2, "", line)


def test_riemann_gap_off_the_unit_interval(capsys):
    # the suite's four 1-d gates, each against its exact mean on [a, b]
    code, out, _ = run_cli(capsys, "stoch", "riemann-gap", "--a", "0.5", "--b", "1.5",
                           "--paths", "2e4", "--steps", "100", "--seed", "2",
                           "--format", "json")
    entries = entries_of(out)
    assert sorted(entries) == ["stoch.isometry", "stoch.product", "stoch.riemann-gap",
                               "stoch.variance"]
    assert all(e["passed"] for e in entries.values()) and code == 0


def test_stoch_paths_default_to_the_full_tier():
    # the parameters bare `stoch ab-mc` and `stoch riemann-gap` would run with
    full = cli.suite.tier_params("full")
    for op, experiment in (("ab-mc", "stoch-conditioning"),
                           ("riemann-gap", "stoch-core")):
        _, params = cli.OPERATIONS["stoch", op]
        args = build_parser().parse_args(["stoch", op])
        assert params(args)["paths"] == full[experiment]["paths"], op


def test_dyadic_mt_ratio(capsys):
    code, out, _ = run_cli(capsys, "dyadic", "mt-ratio", "--weight",
                           "twovalue:2,1", "--depth", "6", "--seed", "3")
    assert code == 0
    assert "dyadic.weighted-mt-envelope" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "qc", "distortion", "--K", "3",
                           "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["entries"][0]["passed"] is True


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# distortion study\nK = 3\nformat = json\n")
    code, out, _ = run_cli(capsys, "qc", "distortion", "--config", str(cfg))
    entry = entries_of(out)["qc.distortion-slope"]
    # K = 3 reached the check: the slope residual against 1/3 is tiny
    assert entry["detail"] == "K=3.0"
    assert entry["value"] <= 1e-10 and entry["passed"]
    assert code == 0


def test_config_explicit_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 3\nformat = json\n")
    code, out, _ = run_cli(capsys, "qc", "distortion", "--config", str(cfg),
                           "--K", "1.5")
    assert entries_of(out)["qc.distortion-slope"]["detail"] == "K=1.5"
    assert code == 0


def test_config_output_key(tmp_path, capsys):
    target = tmp_path / "report.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = json\noutput = {target}\n")
    code, out, _ = run_cli(capsys, "qc", "distortion", "--K", "3",
                           "--config", str(cfg))
    assert code == 0 and out == ""
    assert entries_of(target.read_text())["qc.distortion-slope"]["passed"]


def test_config_workers_key(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_suite(tier, seed, workers, skip):
        seen["workers"] = workers
        return RunReport(config={"tier": tier})

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 2\n")
    assert run_cli(capsys, "suite", "fast", "--config", str(cfg))[0] == 0
    assert seen["workers"] == 2 and type(seen["workers"]) is int


def test_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = two\n")
    code, _, err = run_cli(capsys, "suite", "fast", "--config", str(cfg))
    assert code == 2 and "--workers" in err


def test_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 3\n")
    code, _, err = run_cli(capsys, "qc", "distortion", "--config", str(cfg))
    assert code == 2
    assert "unknown field" in err


def test_ascent_witness_roundtrip(tmp_path, capsys):
    target = tmp_path / "witness.blf"
    code, out, _ = run_cli(capsys, "planar", "norm-ascent", "--op", "r11-r22",
                           "--p", "4", "--n", "32", "--iters", "30",
                           "--witness", str(target), "--format", "json")
    entries = entries_of(out)
    field = pl.read_field(target)
    assert field.n == 32
    # the witness achieves the reported ratio
    image = pl.apply_multiplier(pl.riesz_diff_multiplier(), field)
    achieved = image.norm(4.0) / field.norm(4.0)
    assert -entries["planar.ascent-ratio"]["value"] == pytest.approx(achieved, rel=1e-9)
    assert code == (0 if all(e["passed"] for e in entries.values()) else 1)


def test_report_canonical_json_excludes_timing():
    rep = RunReport(config={"b": 1, "a": 2})
    rep.extend([CheckResult("bellman.tau-quadrature", 0.0, 0.0, 1e-10)])
    rep.wall_time = 123.0
    other = RunReport(config={"a": 2, "b": 1})
    other.extend([CheckResult("bellman.tau-quadrature", 0.0, 0.0, 1e-10)])
    other.wall_time = 4.0
    assert rep.canonical_json() == other.canonical_json()


def test_report_pass_fail_logic():
    # one rule: value <= target + tolerance, and no target passes unless
    # the value is NaN
    assert CheckResult("bellman.tau-quadrature", 3.0, 1.0, 2.0).passed
    assert not CheckResult("bellman.tau-quadrature", 3.5, 1.0, 2.0).passed
    assert not CheckResult("bellman.tau-quadrature", float("nan"), 0.0, 1e-10).passed
    assert CheckResult("laminate.ratio-limit", 99.0).passed
    assert not CheckResult("laminate.ratio-limit", float("nan")).passed
    # the detail is keyword-only, so a stray fifth argument cannot land in it
    with pytest.raises(TypeError):
        CheckResult("bellman.tau-quadrature", 0.0, 0.0, 1e-10, "match")


def test_unregistered_check_id_rejected():
    with pytest.raises(KeyError):
        CheckResult("nonexistent.check", 0.0)


def test_registry_lists_exactly_the_reported_ids():
    entries = json.loads(GOLDEN.read_text())["entries"]
    assert set(CHECK_REGISTRY) == {e["check_id"] for e in entries}


def readme_commands():
    """Every `bellmanlab ...` line of the README's command-line block,
    with continuation lines joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bellmanlab ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= len(cli.OPERATIONS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)   # exits 2 on a flag the CLI lacks
    documented = {tuple(argv[:2]) for argv in commands}
    assert set(cli.OPERATIONS) <= documented
