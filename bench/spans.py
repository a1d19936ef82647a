"""Span tracing of the library's public functions, for the traced run only.

Inside ``with Tracer():`` each listed function is rebound, under its name in the
namespace that calls it (``psbicm.pas.decode``, ``psbicm.metrics.soft_bit_cost``,
...), to a wrapper that records one span per call: name, start, end,
parent span, operation id and an optional work count.  Spans stay in
memory; ``layer_metrics`` derives self times and per-layer counts from
them, and the caller writes them out at the end.

A span's layer is the library module that defines the function, so
``psbicm.metrics.quantize_trace`` counts as ``demapper``.
"""

from __future__ import annotations

import time

import numpy as np

from psbicm import channel, constellation, demapper, fec, metrics, pas, shaping

LAYERS = ("channel", "constellation", "demapper", "metrics", "fec", "shaping", "pas")


def _size_of_arg(index):
    return lambda args, kwargs, result: int(np.size(args[index]))


def _decode_work(args, kwargs, result):
    return (int(result.iterations), bool(result.converged), int(args[0].row_cols.size))


# functions to wrap, by calling namespace; missing names are skipped so the
# tracer keeps working when the library renames an internal call
_TARGETS = (
    (pas, ("run_coded_point", "awgn", "bitwise_lvalues", "make_trace",
           "apply_mapping", "build_mapping", "invert_mapping", "encode", "decode",
           "post_fec_ber", "asi_mc", "gmi_from_trace", "ngmi", "pre_fec_ber",
           "r_fec_star", "amplitudes_to_bits", "ccdm_encode")),
    (metrics, ("compute_report", "soft_bit_cost", "gmi_from_trace", "r_fec_star",
               "asi_mc", "pre_fec_ber", "tributary_conditional_entropies",
               "bmd_rate", "asi_hist", "ngmi", "rate_accounting", "quantize_trace")),
    (demapper, ("demap_to_trace", "bitwise_lvalues", "make_trace")),
    (channel, ("awgn",)),
    (constellation, ("draw_labels", "square_qam")),
    (fec, ("reference_code", "generate_code")),
    (shaping, ("amplitude_preset", "quantize_pmf", "rate_loss")),
)

_WORK = {
    "metrics.soft_bit_cost": _size_of_arg(0),
    "demapper.bitwise_lvalues": _size_of_arg(0),
    "demapper.demap_to_trace": _size_of_arg(1),
    "channel.awgn": _size_of_arg(0),
    "shaping.ccdm_encode": lambda args, kwargs, result: int(np.size(result)),
    "fec.decode": _decode_work,
}

# span record fields
NAME, START, END, PARENT, OP, WORK = range(6)


class Tracer:
    """Records spans of wrapped library calls while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        work = _WORK.get(name)
        if work is not None:
            rec[WORK] = work(args, kwargs, result)
        return result

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def __enter__(self):
        """Rebind the traced functions; ``__exit__`` restores them."""
        for module, names in _TARGETS:
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def _tail_percentile(n):
    """Highest of the usual percentiles with at least 10 samples beyond it
    (the median when there are fewer than 100 samples)."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def layer_metrics(spans):
    """Per-layer metrics from one traced pass.

    Spans named ``op`` are the benchmark's operation roots and spans
    named ``setup`` its set-up roots; every other span is a library call.
    Returns {metric name: (value, unit)}.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_t = dur - child
    names = [s[NAME] for s in spans]
    parents = [s[PARENT] for s in spans]

    def under(i, root):
        while parents[i] >= 0:
            i = parents[i]
        return names[i] == root

    in_ops = np.array([under(i, "op") for i in range(n)], dtype=bool)

    def total(name, where=in_ops):
        return float(sum(dur[i] for i in range(n) if names[i] == name and where[i]))

    def works(name):
        return [spans[i][WORK] for i in range(n) if names[i] == name and in_ops[i]]

    out = {}
    op_wall = total("op")
    layer_self = {}
    for layer in LAYERS:
        layer_self[layer] = float(sum(self_t[i] for i in range(n) if in_ops[i]
                                      and names[i].split(".")[0] == layer))
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out[f"{layer}.self_share"] = (_ratio(layer_self[layer], op_wall), "fraction")
    out["trace.op_wall_s"] = (op_wall, "s")
    out["trace.accounted_share"] = (_ratio(sum(layer_self.values()), op_wall), "fraction")
    out["trace.spans"] = (int(in_ops.sum()), "count")

    # metrics layer: busy time is the outermost metrics spans
    outer_metrics = [i for i in range(n) if in_ops[i] and names[i].startswith("metrics.")
                     and not (parents[i] >= 0 and names[parents[i]].startswith("metrics."))]
    cost_sizes = works("metrics.soft_bit_cost")
    cost_s = total("metrics.soft_bit_cost")
    out["metrics.report_s"] = (float(dur[outer_metrics].sum()), "s")
    out["metrics.gmi_search_s"] = (total("metrics.gmi_from_trace"), "s")
    out["metrics.rfec_search_s"] = (total("metrics.r_fec_star"), "s")
    out["metrics.cost_evals"] = (len(cost_sizes), "count")
    out["metrics.ns_per_lvalue_eval"] = (1e9 * _ratio(cost_s, sum(cost_sizes)), "ns")

    dec = works("fec.decode")
    dec_ms = np.array([1e3 * dur[i] for i in range(n) if names[i] == "fec.decode" and in_ops[i]])
    iters = sum(w[0] for w in dec)
    wasted = sum(w[0] for w in dec if not w[1])
    edge_iters = sum(w[0] * w[2] for w in dec)
    tail_p = _tail_percentile(len(dec))
    decode_s = total("fec.decode")
    out["fec.decode_s"] = (decode_s, "s")
    out["fec.decode_calls"] = (len(dec), "count")
    out["fec.bp_iterations"] = (int(iters), "count")
    out["fec.ns_per_edge_iteration"] = (1e9 * _ratio(decode_s, edge_iters), "ns")
    out["fec.decode_ms_p50"] = (float(np.median(dec_ms)) if dec else 0.0, "ms")
    out["fec.decode_ms_tail"] = (float(np.percentile(dec_ms, tail_p)) if dec else 0.0, "ms")
    out["fec.decode_tail_percentile"] = (tail_p, "%")
    out["fec.converged_ratio"] = (_ratio(sum(1 for w in dec if w[1]), len(dec)), "fraction")
    out["fec.wasted_iteration_share"] = (_ratio(wasted, iters), "fraction")
    out["fec.encode_s"] = (total("fec.encode"), "s")
    out["fec.mapping_s"] = (total("fec.build_mapping") + total("fec.apply_mapping")
                            + total("fec.invert_mapping"), "s")

    demap_sym = sum(works("demapper.bitwise_lvalues"))
    demap_s = total("demapper.bitwise_lvalues")
    out["demapper.demap_s"] = (demap_s, "s")
    out["demapper.demap_calls"] = (len(works("demapper.bitwise_lvalues")), "count")
    out["demapper.ns_per_symbol"] = (1e9 * _ratio(demap_s, demap_sym), "ns")
    out["demapper.trace_s"] = (total("demapper.make_trace") + total("demapper.quantize_trace"), "s")

    amps = works("shaping.ccdm_encode")
    ccdm_s = total("shaping.ccdm_encode")
    out["shaping.ccdm_encode_s"] = (ccdm_s, "s")
    out["shaping.ccdm_calls"] = (len(amps), "count")
    out["shaping.ns_per_amplitude"] = (1e9 * _ratio(ccdm_s, sum(amps)), "ns")

    awgn_sym = sum(works("channel.awgn"))
    awgn_s = total("channel.awgn")
    out["channel.awgn_s"] = (awgn_s, "s")
    out["channel.ns_per_symbol"] = (1e9 * _ratio(awgn_s, awgn_sym), "ns")
    out["constellation.draw_labels_s"] = (total("constellation.draw_labels"), "s")

    in_setup = np.array([under(i, "setup") for i in range(n)], dtype=bool)
    out["fec.code_build_s"] = (total("fec.reference_code", where=in_setup)
                               + total("fec.generate_code", where=in_setup), "s")
    out["shaping.quantize_pmf_s"] = (total("shaping.quantize_pmf", where=in_setup), "s")
    return out


def exact_counts(metrics_out):
    """The counts two traced passes of one seed must reproduce exactly."""
    return {k: metrics_out[k][0] for k in ("fec.bp_iterations", "metrics.cost_evals",
                                           "demapper.demap_calls", "shaping.ccdm_calls")}
