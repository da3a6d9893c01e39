"""Scenario runner: reports, statistics, determinism plumbing."""

import csv
import json
import math

import pytest

from bergman import analytic, verify
from bergman.errors import DomainError
from bergman.verify import (corpus_functions, default_windows, named_weight,
                            ratio_statistics, run_scenario, scenario_ids,
                            write_report)


def test_scenario_registry():
    ids = scenario_ids()
    assert ids == sorted(ids)
    for sid in ("TH-DEC", "TH-HS", "INEQ-MINFTY", "LEM-UP"):
        assert sid in ids
    with pytest.raises(DomainError):
        run_scenario("NO-SUCH")


def test_unknown_config_key_rejected():
    with pytest.raises(DomainError, match="bogus"):
        run_scenario("TH-LAC", {"bogus": 1})
    with pytest.raises(DomainError, match="window"):
        run_scenario("TH-COMPACT", {"window": 2.0})


_KNOWN_KEYS = {
    "COR-HILB": "count, degree, ps, seed, weight, window",
    "COR-PREV": "gamma, m, q, seed, window",
    "INEQ-MINFTY": "count, degree, ps, seed, weights, window",
    "LEM-LIMITS": "offsets, ps, seed, window",
    "LEM-UP": "offsets, ps, seed, window",
    "PROP-LIP": "eta, p, seed, weight, window",
    "TH-COMPACT": "eta, p, q, seed, symbols, weight",
    "TH-DEC": "alphas, count, degree, pairs, seed, weights, window",
    "TH-GORRO": "escape, j_max, n_random, p, seed, weight, window",
    "TH-HS": "K, k_suma, seed, stab_bar, suma_window, weight, window",
    "TH-LAC": "count, k_terms, qs, seed, weights, window",
    "TH-LACSUP": "betas, k_terms, seed, weights, window",
    "TH-MAIN-PQ": "n_max, p, q, seed, symbols, weight, window",
    "TH-MAIN-QP": "p, q, seed, symbols, weight, window",
}


def test_unknown_key_rejected_before_the_scenario_runs(monkeypatch):
    # the runner validates every config against its scenario's defaults
    # before the scenario function is reached
    def never(cfg, rep, window):
        raise AssertionError("scenario ran on an invalid config")

    for fn, _ in verify._scenarios().values():
        monkeypatch.setattr(verify, fn.__name__, never)
    assert scenario_ids() == sorted(_KNOWN_KEYS)
    for sid in scenario_ids():
        with pytest.raises(DomainError) as exc:
            run_scenario(sid, {"bogus": 1})
        assert str(exc.value) == "unknown config keys bogus (known: %s)" % _KNOWN_KEYS[sid]


def test_every_window_is_some_scenario_default(monkeypatch):
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return dict.__getitem__(self, key)

    wins = default_windows()
    monkeypatch.setattr(verify, "default_windows", lambda: Recording(wins))
    verify._scenarios()
    assert read == set(wins)


def test_lem_up_window_bars_condition_iv_only():
    # the window is the bar for condition (iv); the report has no window
    rep = run_scenario("LEM-UP", {"window": 1.0})
    assert rep.window == math.inf
    assert rep.verdict == "Violation"


def test_gorro_extremal_cases_finite():
    # the phi_r profiles reach u ~ 2^-60, where 1 - u rounds to 1
    rep = run_scenario("TH-GORRO")
    phis = [c for c in rep.cases if c["case_id"].startswith("phi-j")]
    assert [c["case_id"] for c in phis] == ["phi-j%02d" % j for j in range(13)]
    assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"])
               and math.isfinite(c["ratio"]) for c in phis)
    assert rep.verdict == "Comparable"


def test_ratio_statistics():
    assert ratio_statistics([1.0, 2.0, 4.0]) == (1.0, 4.0, 4.0)
    assert ratio_statistics([3.0]) == (3.0, 3.0, 1.0)
    assert ratio_statistics([2.0, 2.0, 2.0])[2] == 1.0
    with pytest.raises(DomainError):
        ratio_statistics([])


def test_default_windows_cover_scenarios():
    wins = default_windows()
    for sid in ("TH-DEC", "TH-LAC", "TH-HS", "PROP-LIP", "EQ-SUMA"):
        assert wins[sid] > 1.0


def test_named_weights_normalized():
    for name in ("const", "linear", "std-0.5", "std1", "logpow2"):
        w = named_weight(name)
        assert abs(w.total_mass - 1.0) < 1e-9


def test_corpus_deterministic_and_sized():
    a = corpus_functions(64, 30, 0)
    b = corpus_functions(64, 30, 0)
    assert len(a) == 30
    assert [label for label, _ in a] == [label for label, _ in b]
    import numpy as np
    for (_, fa), (_, fb) in zip(a, b):
        assert np.array_equal(fa.coefficients, fb.coefficients)


# --------------------------------------------------------------------------
# fast scenarios end-to-end

def test_cor_prev_exact():
    rep = run_scenario("COR-PREV")
    assert rep.verdict == "Comparable"
    assert rep.stats[2] <= 1.000001


def test_prop_lip_comparable():
    rep = run_scenario("PROP-LIP")
    assert rep.verdict == "Comparable"
    assert rep.stats[2] <= default_windows()["PROP-LIP"]


def test_th_hs_comparable():
    rep = run_scenario("TH-HS")
    assert rep.verdict == "Comparable"
    assert rep.diagnostics["suma_spread"] <= default_windows()["EQ-SUMA"]


def test_lem_up_agreement():
    rep = run_scenario("LEM-UP")
    assert rep.verdict == "Comparable"
    assert all(c["verdict"] == "ok" for c in rep.cases)


def test_th_lacsup_escaper_excluded_from_spread():
    rep = run_scenario("TH-LACSUP")
    assert rep.verdict == "Comparable"
    escapers = [c for c in rep.cases if c["case_id"].endswith("escaper")]
    assert escapers and all(math.isnan(c["ratio"]) for c in escapers)


def test_th_gorro_const_divergence_consistent():
    rep = run_scenario("TH-GORRO", {"weight": "const"})
    assert rep.verdict == "Divergence-consistent"
    assert rep.diagnostics["muckenhoupt"] == "divergent"


#: small configs of the scenarios whose sides are radial norms or bounds built from them
_RADIAL = {"COR-HILB": {"count": 2}, "TH-DEC": {"count": 10, "degree": 64},
           "INEQ-MINFTY": {"count": 10, "degree": 128},
           "TH-MAIN-QP": {"symbols": ["z", "z2"]}}


@pytest.mark.parametrize("sid, cap, value", [
    ("COR-HILB", None, None), ("TH-DEC", None, None), ("INEQ-MINFTY", None, None),
    ("COR-HILB", "_N_CAP_LOG2", 9), ("TH-DEC", "_N_CAP_LOG2", 7),
    ("INEQ-MINFTY", "_N_CAP_LOG2", 7), ("TH-DEC", "_MAX_LEVEL", 16),
    ("TH-MAIN-QP", None, None), ("TH-MAIN-QP", "_N_CAP_LOG2", 9)])
def test_radial_scenarios_fail_exactly_their_undetermined_cases(monkeypatch, sid, cap, value):
    # uncapped, every case is ok; with the circle-mean node cap or the radial
    # level cap forced down, the norms that hit it are undetermined, and each
    # case with such a side is a violation, named by its case id (TH-MAIN-QP:
    # a lower bound from an undetermined test function is NaN, not skipped)
    if cap is not None:
        monkeypatch.setattr(analytic, cap, value)
    rep = run_scenario(sid, _RADIAL[sid])
    undetermined = [c["case_id"] for c in rep.cases
                    if math.isnan(c["lhs"]) or math.isnan(c["rhs"])]
    assert [c["case_id"] for c in rep.cases if c["verdict"] == "violation"] == undetermined
    assert rep.verdict == ("Comparable" if cap is None else "Violation")
    assert bool(undetermined) is (cap is not None)


# --------------------------------------------------------------------------
# report serialization

def test_write_report_csv_and_json(tmp_path):
    rep = run_scenario("PROP-LIP")
    p_csv = tmp_path / "r.csv"
    p_json = tmp_path / "r.json"
    write_report(rep, str(p_csv), fmt="csv")
    write_report(rep, str(p_json), fmt="json")
    lines = p_csv.read_text().splitlines()
    assert lines[0] == "scenario,case_id,param_json,lhs,rhs,ratio,verdict"
    assert len(lines) == 1 + len(rep.cases)
    # param_json holds commas (a list of constants): quoted, every row still
    # parses to the header's 7 fields, with its numbers as formatted
    with open(p_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert any("," in row[2] for row in rows)
    for row, c in zip(rows, rep.cases):
        assert len(row) == 7
        assert json.loads(row[2].replace("'", '"')) == c["params"]
        assert row[3:] == ["%.12e" % c["lhs"], "%.12e" % c["rhs"], "%.12e" % c["ratio"],
                           c["verdict"]]
    obj = json.loads(p_json.read_text())
    assert obj["scenario"] == "PROP-LIP"
    assert len(obj["cases"]) == len(rep.cases)


def test_write_report_byte_stable(tmp_path):
    a = run_scenario("PROP-LIP")
    b = run_scenario("PROP-LIP")
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(a, str(pa))
    write_report(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_write_report_rejects_format(tmp_path):
    rep = run_scenario("PROP-LIP")
    with pytest.raises(DomainError):
        write_report(rep, str(tmp_path / "r.xml"), fmt="xml")


def test_th_lac_exponents_are_the_stored_marks():
    # TH-LAC's and TH-LACSUP's series sit on the marks M_n of each weight's
    # alpha = 1 partition, continued by mark_float: they are the marks
    # that the partition covering them stores, and the flat weight's are
    # 2^n
    from bergman import decomposition
    for sid in ("TH-LAC", "TH-LACSUP"):
        cfg = verify._scenarios()[sid][1]
        for name in cfg["weights"]:
            w = named_weight(name)
            exps, _ = verify._lacunary_series(w, 2.0, 1, cfg["seed"], cfg["k_terms"])
            part = decomposition.partition(w, 1.0, exps[-1])
            assert exps == list(part.marks[:len(exps)]), (sid, name)
            if name == "const":
                assert exps == [2 ** n for n in range(cfg["k_terms"])], sid
