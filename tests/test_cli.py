"""Command-line interface: exit codes, output schemas, determinism."""

import contextlib
import csv
import io
import json
import math
import time

import pytest

from bergman.analytic import (AnalyticFunction, bergman_norm, hardy_mean, mixed_norm,
                              parse_function_spec)
from bergman import cli
from bergman.cli import main
from bergman.weights import parse_weight


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_weights_inspect(capsys):
    code, out = run(capsys, "weights", "inspect",
                    "--weight", "std(alpha=-0.5)", "--p", "2")
    assert code == 0
    assert "Regular" in out and "finite" in out


def test_weights_inspect_bad_spec(capsys):
    code, _ = run(capsys, "weights", "inspect", "--weight", "nosuch(a=1)")
    assert code == 1


def test_decompose_dyadic_marks(capsys):
    code, out = run(capsys, "decompose", "--weight", "const(c=1)",
                    "--alpha", "1", "--max-degree", "64")
    assert code == 0
    marks = [int(row["M_n"]) for row in csv.DictReader(io.StringIO(out))]
    assert marks[:7] == [1, 2, 4, 8, 16, 32, 64]


def test_decompose_block_norms_of_own_slices(capsys):
    # each block's H^3 norm is that of its own coefficient slice (shift
    # invariance), not of the block at its degree offset
    c = [1.0, 2.0, 0.0, 0.0, 3.0, -4.0, 5.0, 0.0, 0.5, 0.0, 0.0, 2.0]
    code, out = run(capsys, "decompose", "--weight", "const(c=1)", "--alpha", "1",
                    "--max-degree", "40", "--f", "poly(%s)" % ",".join(map(str, c)),
                    "--p", "3", "--q", "2")
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        sl = c[int(row["block_lo"]):int(row["block_hi"])]
        want = hardy_mean(AnalyticFunction(sl), 3.0, 1.0) if any(sl) else 0.0
        assert row["block_Hp_norm"] == "%.12e" % want


def test_decompose_capped_block_is_an_error(capsys, tmp_path):
    # const weight, alpha = 1: block 17 is [2^17, 2^18) and starts at the
    # 2^18-node cap, so its H^3 norm cannot be checked by a doubling
    c = ["0"] * 2 ** 18
    c[1] = c[2 ** 18 - 1] = "1"
    out = tmp_path / "blocks.csv"
    argv = ["decompose", "--weight", "const(c=1)", "--alpha", "1",
            "--max-degree", str(2 ** 18 - 1), "--f", "poly(%s)" % ",".join(c)]
    assert main(argv + ["--p", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error: ") and " 17 " in lines[0]
    assert main(argv + ["--p", "2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 19


def test_decompose_rejects_function_past_coverage(capsys):
    # the marks 1, 2, 4, 8 cover degree 7: a degree-9 function is an error,
    # not a silent truncation
    code, _ = run(capsys, "decompose", "--weight", "const(c=1)", "--alpha", "1",
                  "--max-degree", "4", "--f", "poly(1,2,3,4,5,6,7,8,9,10)")
    assert code == 1


def test_apply_requires_well_defined(capsys):
    # flat weight: the operator is not defined on A^2, domain-error exit
    code, _ = run(capsys, "apply", "--g", "logk(deg=64)", "--f", "poly(1)",
                  "--weight", "const(c=1)", "--p", "2")
    assert code == 1


def test_apply_classical_column(capsys):
    code, out = run(capsys, "apply", "--g", "logk(deg=64)", "--f", "poly(1)",
                    "--weight", "std(alpha=-0.5)", "--p", "2", "--kmax", "8")
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(0.5, rel=1e-12)


def test_hs_subcommand(capsys):
    code, out = run(capsys, "hs", "--g", "poly(0,0,1)",
                    "--weight", "std(alpha=-0.5)", "--K", "200")
    assert code == 0
    assert "finite" in out


def test_hs_divergent_verdict_and_out_csv(capsys, tmp_path):
    p = tmp_path / "hs.csv"
    code, out = run(capsys, "hs", "--g", "logk(deg=4096)",
                    "--weight", "std(alpha=-0.5)", "--K", "1000",
                    "--out", str(p))
    assert code == 0
    assert out == "hs_limit: divergent\n"
    lines = p.read_text().splitlines()
    assert lines[0] == "K,S_K"
    for line in lines[1:]:
        k, s_k = line.split(",")
        int(k), float(s_k)
    assert int(lines[-1].split(",")[0]) == 1000


def test_hs_short_run_undetermined(capsys):
    code, out = run(capsys, "hs", "--g", "logk(deg=64)",
                    "--weight", "std(alpha=-0.5)", "--K", "4")
    assert code == 0
    assert out.splitlines()[-1] == "hs_limit: undetermined"


def test_lacunary_subcommand(capsys):
    code, out = run(capsys, "lacunary", "--coeffs", "1,0.5,0.25",
                    "--exps", "1,2,4", "--weight", "const(c=1)", "--q", "2")
    assert code == 0


def test_verify_exit_zero_and_csv(capsys, tmp_path):
    p = tmp_path / "r.csv"
    code, _ = run(capsys, "verify", "--scenario", "PROP-LIP",
                  "--out", str(p))
    assert code == 0
    header = p.read_text().splitlines()[0]
    assert header == "scenario,case_id,param_json,lhs,rhs,ratio,verdict"


def test_verify_byte_identical_repeat(capsys, tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "verify", "--scenario", "TH-HS", "--seed", "17",
               "--out", str(pa))[0] == 0
    assert run(capsys, "verify", "--scenario", "TH-HS", "--seed", "17",
               "--out", str(pb))[0] == 0
    assert pa.read_bytes() == pb.read_bytes()


def test_verify_json_format(capsys, tmp_path):
    p = tmp_path / "r.json"
    code, _ = run(capsys, "verify", "--scenario", "PROP-LIP",
                  "--out", str(p), "--format", "json")
    assert code == 0
    obj = json.loads(p.read_text())
    assert obj["scenario"] == "PROP-LIP" and obj["verdict"] == "Comparable"


def test_verify_lem_up_json_report(capsys, tmp_path):
    # the report's case parameters must all be JSON-serializable
    p = tmp_path / "r.json"
    code, _ = run(capsys, "verify", "--scenario", "LEM-UP",
                  "--out", str(p), "--format", "json")
    assert code == 0
    obj = json.loads(p.read_text())
    assert obj["scenario"] == "LEM-UP" and obj["verdict"] == "Comparable"


def test_verify_rejects_option_the_scenario_ignores(capsys):
    # TH-LAC reads a list of weights, so a single --weight is an error
    assert main(["verify", "--scenario", "TH-LAC", "--weight", "std1"]) == 1
    assert "weight" in capsys.readouterr().err


def test_norms_battery(capsys):
    # f = 1 + z on the unit-mass weight omega = (1-r^2)^(-1/2) / (pi/2):
    # hardy^2 = 2; bergman^2 = 2 (omega_0 + omega_1) = 2 (2/pi + 4/(3 pi));
    # mixed^2 = int omega + int r^2 omega = 1 + 1/2; the sup grid ends at
    # u = 2^-40, where M_2(r, f)^2 = 1 + r^2
    code, out = run(capsys, "norms", "--f", "poly(1,1)",
                    "--weight", "std(alpha=-0.5)", "--p", "2", "--q", "2")
    assert code == 0
    vals = {name: float(v) for name, v in (line.split(": ") for line in out.splitlines())}
    assert list(vals) == ["bergman_p2", "mixed_p2_q2_gamma0", "mixed_sup_p2", "hardy_p2"]
    r = 1.0 - 2.0 ** -40
    assert vals["hardy_p2"] == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert vals["bergman_p2"] == pytest.approx(math.sqrt(20.0 / (3.0 * math.pi)), rel=1e-11)
    assert vals["mixed_p2_q2_gamma0"] == pytest.approx(math.sqrt(1.5), rel=1e-10)
    assert vals["mixed_sup_p2"] == pytest.approx(math.sqrt(1.0 + r * r), rel=1e-11)


def test_norms_samples_each_circle_once(capsys, monkeypatch):
    # the Bergman and mixed lines share one hardy_means_u call per chunk of
    # radial levels; the sup grid and r = 1 take one call each
    import bergman.analytic as analytic
    hardy, radial = analytic.hardy_means_u, analytic.weighted_radial_integral
    calls, levels = [], []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return hardy(*args, **kwargs)

    def integral(*args, **kwargs):
        val, diag = radial(*args, **kwargs)
        levels.append(diag["levels"])
        return val, diag

    monkeypatch.setattr(analytic, "hardy_means_u", counted)
    monkeypatch.setattr(cli, "hardy_means_u", counted)
    monkeypatch.setattr(analytic, "weighted_radial_integral", integral)
    code, _ = run(capsys, "norms", "--f", "poly(1,0.5,-0.25,0.75)",
                  "--weight", "std(alpha=0.5)", "--p", "3")
    assert code == 0 and len(levels) == 1
    assert len(calls) == math.ceil(levels[0] / analytic._LEVELS_PER_CHUNK) + 2


def test_norms_lines_match_one_line_calls(capsys):
    # the shared radial pass prints the values of separate bergman_norm and
    # mixed_norm calls, the flat rule included (logpow, gamma = 0)
    f, spec = parse_function_spec("poly(1,-0.5,0.25,0,0.75)"), "logpow(beta=2)"
    w = parse_weight(spec).normalized()
    for p, gamma in [(1.5, 0.5), (3.0, 0.0)]:
        code, out = run(capsys, "norms", "--f", "poly(1,-0.5,0.25,0,0.75)", "--weight", spec,
                        "--p", repr(p), "--q", "2.5", "--gamma", repr(gamma))
        vals = dict(line.split(": ") for line in out.splitlines())
        assert code == 0
        assert vals["bergman_p%g" % p] == "%.12e" % float(bergman_norm(f, p, w))
        assert vals["mixed_p%g_q2.5_gamma%g" % (p, gamma)] == \
            "%.12e" % float(mixed_norm(f, p, 2.5, w, gamma=gamma))


@pytest.mark.parametrize("option", [("--p", "nan"), ("--p=-inf",),
                                    ("--q", "nan"), ("--q", "inf"),
                                    ("--gamma", "nan")])
def test_norms_rejects_non_finite_exponents(capsys, option):
    # a NaN p once sampled up to the node cap at every radius, and an
    # infinite q printed 1.0; each must be one error line, fast (p = +inf
    # is a valid query, see test_norms_p_infinity)
    t0 = time.monotonic()
    code = main(["norms", "--f", "poly(1,2,3)", "--weight", "std(alpha=0.5)",
                 *option])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert time.monotonic() - t0 < 5.0


def test_norms_capped_circle_mean_is_an_error(capsys, monkeypatch, tmp_path):
    # with the node cap at 2^9 every circle mean of a degree-300 series caps,
    # the hardy_p line's too: one error line naming the cap and no output
    import bergman.analytic as analytic
    monkeypatch.setattr(analytic, "_N_CAP_LOG2", 9)
    out = tmp_path / "norms.txt"
    code = main(["norms", "--f", "rand(deg=300,seed=1,dist=sym)", "--weight",
                 "std(alpha=-0.5)", "--p", "3", "--out", str(out)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1 and captured.out == "" and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "node cap" in lines[0]
    for name in ("bergman_p3", "mixed_p3_q2_gamma0", "hardy_p3"):
        assert name in lines[0]


def test_norms_p_infinity(capsys):
    # A^p_omega needs finite p, so its line is named undefined; the mixed,
    # sup and M_inf lines are defined.  Nonnegative coefficients peak at
    # theta = 0: M_inf(1, f) = f(1) = 3.5, and the sup grid reaches
    # u = 2^-40, where f(1 - u) = 3.5 - 3u + u^2/2
    code, out = run(capsys, "norms", "--f", "poly(1,2,0.5)",
                    "--weight", "std(alpha=-0.5)", "--p", "inf")
    assert code == 0
    names = [line.split(": ")[0] for line in out.splitlines()]
    assert names == ["bergman_pinf", "mixed_pinf_q2_gamma0", "mixed_sup_pinf",
                     "hardy_pinf"]
    vals = dict(line.split(": ") for line in out.splitlines())
    assert vals["bergman_pinf"] == "undefined (A^p_omega needs finite p)"
    assert float(vals["hardy_pinf"]) == 3.5
    assert float(vals["mixed_sup_pinf"]) == pytest.approx(3.5, rel=1e-11)
    assert 0.0 < float(vals["mixed_pinf_q2_gamma0"]) < 3.5


def test_norms_level_capped_radial_integral_is_an_error(capsys, monkeypatch):
    # with the radial level cap at one chunk the Bergman and mixed lines are
    # undetermined: one error line naming both and the level cap
    import bergman.analytic as analytic
    monkeypatch.setattr(analytic, "_MAX_LEVEL", analytic._LEVELS_PER_CHUNK)
    code = main(["norms", "--f", "poly(1,-2,0.5,0.75)", "--weight", "std(alpha=-0.5)",
                 "--p", "3"])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: ") and "level cap" in lines[0]
    assert "node cap" not in lines[0]
    for name in ("bergman_p3", "mixed_p3_q2_gamma0"):
        assert name in lines[0]
    assert "hardy_p3" not in lines[0] and "mixed_sup_p3" not in lines[0]


def test_norms_p_infinity_capped_is_an_error(capsys, monkeypatch):
    # a first N at the 2^9 cap has no comparison, so every M_inf caps
    import bergman.analytic as analytic
    monkeypatch.setattr(analytic, "_N_CAP_LOG2", 9)
    code = main(["norms", "--f", "rand(deg=300,seed=1,dist=sym)", "--weight",
                 "std(alpha=-0.5)", "--p", "inf"])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1 and captured.out == ""
    assert len(lines) == 1 and "node cap" in lines[0] and "hardy_pinf" in lines[0]


_DECOMPOSE = ["decompose", "--weight", "const(c=1)", "--alpha", "1", "--max-degree", "64"]


@pytest.mark.parametrize("argv", [
    _DECOMPOSE + ["--f", "poly(1,2,3)", "--q", "-1"],     # an empty block's 0 ** q divides by 0
    _DECOMPOSE + ["--f", "poly(1,2,3)", "--q", "0"],      # 0 ** 0 = 1 counts empty blocks
    _DECOMPOSE + ["--p", "-3"],                           # p is unused without --f
    _DECOMPOSE + ["--q", "nan"],
    _DECOMPOSE + ["--p", "inf"],
    ["decompose", "--weight", "const(c=1)", "--alpha", "nan",
     "--max-degree", "64"],                               # the mark loop never ends
    ["apply", "--g", "poly(0,1,2)", "--f", "poly(1)", "--weight", "std(alpha=-0.5)",
     "--kmax", "-3"],                                     # returns before moments checks
    ["lacunary", "--coeffs", "1,0.5", "--exps", "1,4", "--weight", "pow(beta=0.5)",
     "--q", "-1"],                                        # the moment sum takes any q
    ["lacunary", "--coeffs", "1,0.5", "--exps", "1,4", "--weight", "pow(beta=0.5)",
     "--gap", "nan"],                                     # no ratio is below a NaN gap
], ids=["decompose-q-neg", "decompose-q-zero", "decompose-p-neg", "decompose-q-nan",
        "decompose-p-inf", "decompose-alpha-nan", "apply-kmax-neg", "lacunary-q-neg",
        "lacunary-gap-nan"])
def test_out_of_range_input_is_an_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["weights", "inspect", "--weight", "std(alpha=0.5)", "--p", "nan"],
    ["apply", "--g", "poly(0,1,2)", "--f", "poly(1)", "--weight", "std(alpha=-0.5)",
     "--p", "nan"],
    ["apply", "--g", "poly(0,1,2)", "--f", "poly(1)", "--weight", "std(alpha=-0.5)",
     "--q", "nan"],
], ids=["inspect-p-nan", "apply-p-nan", "apply-q-nan"])
def test_nan_exponent_error_names_it(capsys, argv):
    # a NaN p passed the p <= 1 checks and failed later as a quadrature
    # that never converged; the one error line must name the exponent
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "p > 1" in lines[0] or "p, q > 1" in lines[0]
    assert "convergence" not in lines[0]


def test_usage_error_exit_two(capsys):
    assert main(["no-such-subcommand"]) == 2
    assert main([]) == 2


def _run_captured(parser_factory, argv, out_path=None):
    """(exit code, stdout, stderr, --out file bytes) of one main() call."""
    saved = cli._build_parser
    cli._build_parser = parser_factory
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        cli._build_parser = saved
    report = None
    if out_path is not None and out_path.exists():
        report = out_path.read_bytes()
        out_path.unlink()
    return code, stdout.getvalue(), stderr.getvalue(), report


def test_parser_reused_across_calls(tmp_path):
    # one parser serves every call of a process; each call's bytes and exit
    # code equal those of a freshly built parser, also after a usage error
    out = tmp_path / "inspect.txt"
    query = ["weights", "inspect", "--weight", "std(alpha=0.5)", "--p", "3"]
    calls = [(query + ["--out", str(out)], 0), (query, 0),
             (["weights", "inspect", "--p", "3"], 2),
             (["lacunary", "--coeffs", "1,0.5,0.25", "--exps", "1,4,16",
               "--weight", "pow(beta=0.5)"], 0)]
    fresh = cli._build_parser.__wrapped__
    for argv, want_code in calls:
        reused = _run_captured(cli._build_parser, argv, out)
        assert reused == _run_captured(fresh, argv, out)
        assert reused[0] == want_code
    assert cli._build_parser() is cli._build_parser()
    assert _run_captured(cli._build_parser, calls[0][0], out)[3].decode() == \
        _run_captured(cli._build_parser, query)[1]
