"""The name(key=value,...) spec grammar of weights and functions."""

import math

import numpy as np
import pytest

import bergman
from bergman import analytic, weights
from bergman.analytic import (AnalyticFunction, binomial_kernel, log_kernel,
                              parse_function_spec, random_function)
from bergman.cli import main
from bergman.errors import DomainError
from bergman.weights import (const_weight, logpow_weight, logprod_weight,
                             osc_weight, parse_weight, pow_weight, std_weight,
                             table_weight)

_RADII = [0.0, 0.25, 0.5, 0.75, 0.9]
_DENSITIES = [1.0, 1.5, 2.0, 3.0, 5.0]


def _assert_same_weight(w, ref):
    assert (w.family, w.params, w.scale) == (ref.family, ref.params, ref.scale)
    assert w.total_mass == ref.total_mass
    us = np.array([0.75, 0.5, 0.125, 1e-3])
    assert np.array_equal(w.density_u(us), ref.density_u(us))
    assert np.array_equal(w.tail_u(us), ref.tail_u(us))


# --------------------------------------------------------------------------
# every family parses to what its constructor builds

@pytest.mark.parametrize("spec, build", [
    ("const()", lambda: const_weight()),
    ("const(c=2.5)", lambda: const_weight(2.5)),
    ("std(alpha=-0.5)", lambda: std_weight(-0.5)),
    ("pow(beta=1)", lambda: pow_weight(1.0)),
    ("logpow(beta=2)", lambda: logpow_weight(2.0)),
    ("logprod(alpha=2,n=2)", lambda: logprod_weight(2.0, 2)),
    ("osc()", lambda: osc_weight()),
    ("std(alpha=1)*3.5", lambda: std_weight(1.0).scaled(3.5)),
])
def test_weight_spec_matches_constructor(spec, build):
    _assert_same_weight(parse_weight(spec), build())


def test_table_spec_matches_constructor(tmp_path):
    path = tmp_path / "omega.csv"
    path.write_text("r,omega\n" + "".join(
        "%r,%r\n" % rw for rw in zip(_RADII, _DENSITIES)))
    _assert_same_weight(parse_weight("table(path=%s)" % path),
                        table_weight(_RADII, _DENSITIES))


def test_table_spec_rejects_one_column(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("r\n0.25\n0.5\n")
    with pytest.raises(ValueError):
        parse_weight("table(path=%s)" % path)


@pytest.mark.parametrize("spec, build", [
    ("logk()", lambda: log_kernel(2048)),
    ("logk(deg=64)", lambda: log_kernel(64)),
    ("binom(s=0.5,deg=16)", lambda: binomial_kernel(0.5, 16)),
    ("rand()", lambda: random_function(512, 0, "unit")),
    ("rand(deg=8,seed=3,dist=normal)", lambda: random_function(8, 3, "normal")),
    ("poly(1,0.5-2j)", lambda: AnalyticFunction([1.0, 0.5 - 2j],
                                                label="poly(1,0.5-2j)")),
])
def test_function_spec_matches_constructor(spec, build):
    f, ref = parse_function_spec(spec), build()
    assert np.array_equal(f.coefficients, ref.coefficients)
    assert f.label == ref.label


# --------------------------------------------------------------------------
# invalid values are rejected, not truncated or overwritten

@pytest.mark.parametrize("spec", [
    "logk(deg=2.7)", "rand(seed=1.9)", "logk(deg=2048,deg=3)",
    "poly(nan)", "poly(1,inf)", "binom(s=nan)", "binom(s=0,deg=4)",
    "binom(s=-1,deg=4)", "binom(deg=4)", "logk(deg)", "logk(x=1)", "poly()",
])
def test_function_spec_rejects(spec):
    with pytest.raises(DomainError):
        parse_function_spec(spec)


@pytest.mark.parametrize("spec", [
    "logprod(alpha=2,n=1.5)", "std(alpha=1,alpha=2)", "std(alpha=nan)",
    "std()", "const(c=inf)", "const(c=nan)", "const(c=0)",
    "std(alpha=1)*inf", "std(alpha=1)*nan", "std(alpha=1)*0",
    "std(alpha=1)*-2", "std(alpha=1)*x",
])
def test_weight_spec_rejects(spec):
    with pytest.raises(DomainError):
        parse_weight(spec)


def test_integral_float_keys_stay_valid():
    assert parse_function_spec("logk(deg=2e3)").degree == 2000
    assert parse_weight("logprod(alpha=2,n=2.0)").params["n_logs"] == 2


@pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -1.0])
def test_weight_scale_must_be_finite_positive(c):
    with pytest.raises(DomainError):
        const_weight(c)
    with pytest.raises(DomainError):
        const_weight(1.0).scaled(c)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
def test_binomial_kernel_needs_positive_s(s):
    with pytest.raises(DomainError):
        binomial_kernel(s, 4)


def test_cli_rejects_invalid_specs(capsys):
    assert main(["norms", "--f", "logk(deg=2.7)",
                 "--weight", "std(alpha=1,alpha=2)"]) == 1
    assert main(["weights", "inspect", "--weight", "const(c=inf)"]) == 1
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------------
# tooling: exported names resolve and the help lists every family

@pytest.mark.parametrize("module", [bergman, analytic, weights])
def test_all_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_help_lists_every_spec_family(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    families = [*weights._WEIGHT_FAMILIES, *analytic._FUNCTION_FAMILIES]
    assert [f for f in families if f + "(" not in out] == []
