"""Scenario runner: reports, statistics, determinism plumbing."""

import json
import math

import pytest

from bergman.errors import DomainError
from bergman.verify import (corpus_functions, default_windows, named_weight,
                            ratio_statistics, run_scenario, scenario_ids,
                            separating_example_growth, write_report)


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


def test_separating_example_growth_directions():
    w = named_weight("const")
    stable = separating_example_growth(w, 3.0, 2.0)
    growing = separating_example_growth(w, 3.0, 3.0)
    # truncation growth dies out in the smaller space, persists in the larger
    assert stable[2] - stable[1] < 0.5 * (stable[1] - stable[0])
    assert growing[2] - growing[1] > 0.5 * (growing[1] - growing[0])


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
