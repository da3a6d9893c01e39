"""Per-layer tracing of `bergman`, applied from outside the package.

The tracer wraps the public functions listed in ``SPANS`` in every
`bergman` module namespace that holds them (``from .x import f`` copies the
binding into the importing module, so patching the defining module alone
would miss most calls), and the ``RadialWeight`` methods at class level.
Each wrapped call is a span: its duration minus the time covered by the
spans it encloses is its self time.  Counters read the arguments and the
returned diagnostics at the same boundary.  ``restore()`` puts every
original binding back, so untraced rounds in the same process run the
program unchanged.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _size_of(args, kwargs, name, index):
    return int(np.size(kwargs[name] if name in kwargs else args[index]))


def _count_hardy(acc, args, kwargs, result):
    diag = result[1]
    if diag.get("method") == "parseval":
        acc["parseval_calls"] += 1
    if "nodes" in diag:
        acc["samples"] += _size_of(args, kwargs, "us", 2) * diag["nodes"]
    if diag.get("capped"):
        acc["capped"] += 1


def _count_minf(acc, args, kwargs, result):
    diag = result[1]
    if "nodes" in diag:
        acc["samples"] += _size_of(args, kwargs, "us", 1) * diag["nodes"]


def _count_radial(acc, args, kwargs, result):
    diag = result[1]
    acc["levels"] += diag["levels"]
    if diag["stop"] == "max-level":
        acc["stop_max_level"] += 1


def _count_moments(acc, args, kwargs, result):
    # size of the dense Hankel product: coefficients times output entries
    if hasattr(args[0], "coefficients"):
        acc["terms"] += len(args[0].coefficients) * int(np.size(result))


def _count_hs(acc, args, kwargs, result):
    acc["terms"] += (len(args[0].coefficients) - 1) * int(np.size(result))


# span name, counter, counter names
SPANS = [
    ("analytic.hardy_means_u", _count_hardy,
     ("samples", "capped", "parseval_calls")),
    ("analytic.m_infinity_u", _count_minf, ("samples",)),
    ("analytic.weighted_radial_integral", _count_radial,
     ("levels", "stop_max_level")),
    ("analytic.bergman_norm", None, ()),
    ("analytic.mixed_norm", None, ()),
    ("operators.moments", _count_moments, ("terms",)),
    ("operators.moments_profile", None, ()),
    ("operators.hilbert_schmidt_partial", _count_hs, ("terms",)),
    ("operators.hilbert_norm2_profile", None, ()),
    ("quadrature.integrate_geometric", None, ()),
    ("quadrature.integrate_geometric_vec", None, ()),
    ("quadrature.gauss_panel", None, ()),
    ("weights.RadialWeight.tail_u", None, ()),
    ("weights.RadialWeight.density_u", None, ()),
    ("weights.RadialWeight.moments_upto", None, ()),
    ("weights.classify", None, ()),
    ("weights.muckenhoupt", None, ()),
    ("weights.condition_99", None, ()),
    ("decomposition.partition", None, ()),
    ("decomposition.decomposition_norm", None, ()),
    ("verify.run_scenario", None, ()),
    ("cli.main", None, ()),
]


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for span, _, counters in SPANS:
        names.extend([span + ".calls", span + ".self_s"])
        names.extend(span + "." + c for c in counters)
    return names


class Tracer:
    """Installs span wrappers into `bergman` and accumulates per-span stats."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._open = []            # child-time accumulator of each open span
        self._saved = []           # (owner, attribute, original)

    def _wrap(self, span, fn, counter):
        stats = self.stats[span]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                stats["calls"] += 1
                stats["self_s"] += dt - inner
                if open_spans:
                    open_spans[-1] += dt
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        return traced

    def install(self):
        for span, _, _ in SPANS:
            importlib.import_module("bergman." + span.split(".")[0])
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bergman" or name.startswith("bergman.")]
        for span, counter, _ in SPANS:
            mod, attr = span.split(".", 1)
            if attr.startswith("RadialWeight."):
                cls = sys.modules["bergman.weights"].RadialWeight
                meth = attr.split(".", 1)[1]
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original, counter))
                continue
            original = getattr(sys.modules["bergman." + mod], attr)
            wrapper = self._wrap(span, original, counter)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def metrics(self, rounds):
        """Per-round averages of every per-layer metric (0 where unused)."""
        out = {}
        for name in metric_names():
            span, what = name.rsplit(".", 1)
            out[name] = self.stats[span][what] / rounds
        return out
