"""Batch experiment runner: metric sweeps, coded scans, trace ingestion.

Subcommands emit tidy CSV (one row per grid point) and optionally a JSON
document that echoes the full configuration next to the rows, so every
table is reproducible from its own metadata.  No plotting: downstream
tools consume the tables.

One serializer turns every result dataclass into rows, field by field:
bools are JSON true/false and CSV 0/1, ints stay ints, everything else
is a float written with ``repr``.  ``sweep`` and ``ingest`` documents
carry the schema ``psbicm-metrics-v3`` (one ``MetricReport`` per row,
plus ``snr_db`` for sweeps); ``fecscan`` documents carry
``psbicm-fecscan-v3`` (one ``CodedPointResult`` per row, raw bit and
frame error counts next to the rates).  An ``ingest``
document also holds a ``consistency`` list: the slope, intercept and
coverage of the L-value consistency fit per tributary
(``demapper.consistency_check``; slope s_o/s = 1 for a matched demapper).

Determinism: labels, noise and payloads for grid point ``i`` come from
counter-based substreams keyed ``(seed, i)``, so a row depends only on
the configuration and its grid index.  The format, quantizer and code
are built once per run; the points then run in grid order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .channel import ChannelConfig, awgn
from .constellation import draw_labels, square_qam
from .demapper import (DemapperConfig, Quantizer, consistency_check, demap_to_trace,
                       read_trace, write_trace)
from .fec import generate_code, read_alist, reference_code, write_alist
from .metrics import MetricReport, compute_report
from .pas import CodedPointResult, run_coded_point
from .shaping import amplitude_preset, quantize_pmf, rate_loss

_FORMATS = {"qpsk": 2, "16qam": 4, "64qam": 6, "256qam": 8}

METRICS_SCHEMA = "psbicm-metrics-v3"
FECSCAN_SCHEMA = "psbicm-fecscan-v3"


def _parse_grid(text):
    """SNR grid from 'a,b,c' or 'start:stop:step' (stop inclusive)."""
    if ":" in text:
        parts = [float(t) for t in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0:
            raise ValueError("range grid must be start:stop:step with step > 0")
        lo, hi, step = parts
        n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        if n < 1:
            raise ValueError("empty snr grid")
        return [lo + i * step for i in range(n)]
    vals = [float(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise ValueError("empty snr grid")
    return vals


def _build_format(cfg):
    """(constellation, pmf, composition) from an echoed config dict."""
    m = _FORMATS[cfg["format"]]
    comp = None
    if cfg.get("pmf_preset"):
        if m != 6:
            raise ValueError("amplitude presets are defined for 64qam")
        target = amplitude_preset(cfg["pmf_preset"])
        comp = quantize_pmf(target, cfg["n_pam"])
        con, pmf = square_qam(m, amplitude_pmf=comp.pmf)
    else:
        con, pmf = square_qam(m)
    return con, pmf, comp


def _metric_point(cfg, i, snr_db, con, pmf, qz, r_loss):
    """MetricReport of grid point i; writes its trace when asked."""
    rng = ChannelConfig(snr_db, seed=cfg["seed"], block_id=2 * i + 1).rng()
    labels = draw_labels(pmf, cfg["symbols_per_block"], rng)
    ch = ChannelConfig(snr_db, seed=cfg["seed"], block_id=2 * i)
    y = awgn(con.points[labels], ch)
    dcfg = DemapperConfig(assumed_snr_db=snr_db + cfg["assumed_snr_offset_db"],
                          scale=cfg["scale"], quantizer=qz)
    trace = demap_to_trace(labels, y, con, pmf, dcfg,
                           channel_snr_linear=ch.snr_linear)
    report = compute_report(trace, quantizer=qz, r_c=cfg.get("code_rate"),
                            r_loss=r_loss)
    if cfg.get("trace_dir"):
        write_trace(os.path.join(cfg["trace_dir"], f"point_{i:03d}.lvt"), trace)
    return report


def _load_code(cfg):
    if cfg.get("code_file"):
        return read_alist(cfg["code_file"])
    if cfg.get("rate"):
        return generate_code(cfg["n"], cfg["rate"], seed=cfg["code_seed"])
    return reference_code()


def _json_row(result):
    """A result dataclass as a JSON dict: bools and ints kept, the rest float."""
    values = ((f.name, getattr(result, f.name)) for f in fields(result))
    return {k: v if isinstance(v, int) else float(v) for k, v in values}


def _csv_header(cls):
    return ",".join(f.name for f in fields(cls))


def _csv_row(result):
    return ",".join(str(int(v)) if isinstance(v, bool) else repr(v)
                    for v in _json_row(result).values())


def _write_text(path, text):
    """Write text to the file at ``path``, or to stdout when it is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_csv(path, header, rows):
    _write_text(path, "\n".join([header] + rows) + "\n")


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _echo_config(args, keys):
    return {k: getattr(args, k) for k in keys}


def cmd_sweep(args):
    cfg = _echo_config(args, ["format", "pmf_preset", "n_pam", "symbols_per_block",
                              "assumed_snr_offset_db", "scale", "quantizer_levels",
                              "quantizer_step", "seed", "code_rate", "trace_dir"])
    if cfg["symbols_per_block"] < 10_000:
        raise ValueError("metric runs need at least 10^4 symbols per point")
    if (cfg["quantizer_levels"] is None) != (cfg["quantizer_step"] is None):
        raise ValueError("set both quantizer levels and step, or neither")
    con, pmf, comp = _build_format(cfg)
    qz = None
    if cfg["quantizer_levels"] is not None:
        qz = Quantizer(cfg["quantizer_levels"], cfg["quantizer_step"])
    r_loss = rate_loss(comp) if comp is not None else 0.0
    if cfg["trace_dir"]:
        os.makedirs(cfg["trace_dir"], exist_ok=True)
    grid = _parse_grid(args.snr_db)
    reports = [_metric_point(cfg, i, s, con, pmf, qz, r_loss) for i, s in enumerate(grid)]
    rows = [f"{s!r},{_csv_row(r)}" for s, r in zip(grid, reports)]
    _write_csv(args.out, "snr_db," + _csv_header(MetricReport), rows)
    if args.json_out:
        doc = {"schema": METRICS_SCHEMA, "config": cfg,
               "rows": [dict(_json_row(r), snr_db=s) for s, r in zip(grid, reports)]}
        _write_json(args.json_out, doc)
    return 0


def cmd_fecscan(args):
    cfg = _echo_config(args, ["format", "pmf_preset", "n_pam", "codewords",
                              "assumed_snr_offset_db", "scale", "mapping",
                              "mapping_seed", "max_iter", "seed",
                              "code_file", "rate", "n", "code_seed"])
    if args.code_file and args.rate:
        raise ValueError("give either --code-file or --rate/--n, not both")
    con, pmf, comp = _build_format(cfg)
    code = _load_code(cfg)
    cfg["code_rate"] = code.rate
    grid = _parse_grid(args.snr_db)
    # a code/format/pmf combination the chain cannot frame fails in the
    # first point's transmitter, before any noise or decoding
    results = [run_coded_point(
        code, con, pmf, s, cfg["codewords"],
        composition=comp, mapping=cfg["mapping"], mapping_seed=cfg["mapping_seed"],
        seed=cfg["seed"], max_iter=cfg["max_iter"],
        assumed_snr_db=s + cfg["assumed_snr_offset_db"], scale=cfg["scale"],
        noise_block_base=i * cfg["codewords"])[0] for i, s in enumerate(grid)]
    _write_csv(args.out, _csv_header(CodedPointResult), [_csv_row(r) for r in results])
    if args.json_out:
        doc = {"schema": FECSCAN_SCHEMA, "config": cfg,
               "rows": [_json_row(r) for r in results]}
        _write_json(args.json_out, doc)
    return 0


def cmd_ingest(args):
    trace = read_trace(args.trace)
    report = compute_report(trace, quantizer=trace.quantizer,
                            r_c=args.code_rate, r_loss=args.r_loss)
    _write_csv(args.out, _csv_header(MetricReport), [_csv_row(report)])
    if args.json_out:
        _write_json(args.json_out, {
            "schema": METRICS_SCHEMA,
            "config": {"trace": args.trace, "code_rate": args.code_rate,
                       "r_loss": args.r_loss},
            "rows": [_json_row(report)],
            "consistency": [{"tributary": c.tributary, "slope": c.slope,
                             "intercept": c.intercept, "coverage": c.coverage}
                            for c in consistency_check(trace)]})
    return 0


def cmd_codegen(args):
    code = generate_code(args.n, args.rate, seed=args.code_seed)
    write_alist(code, args.out)
    sys.stderr.write(f"{code.name}: n={code.n} k={code.k} rate={code.rate}\n")
    return 0


def cmd_pmf(args):
    target = amplitude_preset(args.preset)
    comp = quantize_pmf(target, args.n_pam)
    doc = dict(comp.to_json(), preset=args.preset, n_pam=comp.n_pam,
               k_ps=comp.k_ps, rate_loss=rate_loss(comp),
               pmf=[float(p) for p in comp.pmf])
    _write_json(args.out, doc)
    return 0


def _add_format_args(p):
    p.add_argument("--format", choices=sorted(_FORMATS), default="64qam")
    p.add_argument("--pmf-preset", choices=["i", "ii", "iii"], default=None,
                   help="shaped amplitude preset (64qam only); omit for uniform")
    p.add_argument("--n-pam", type=int, default=1024,
                   help="shaping codeword length used to realize the preset")
    p.add_argument("--assumed-snr-offset-db", type=float, default=0.0,
                   help="receiver assumed SNR minus true SNR (0 = matched)")
    p.add_argument("--scale", type=float, default=1.0, help="extrinsic scaling s")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    ap = argparse.ArgumentParser(prog="psbicm",
                                 description="coded-modulation metric and FEC studies")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="per-SNR metric table from a fresh simulation")
    _add_format_args(p)
    p.add_argument("--snr-db", required=True, help="grid: 'a,b,c' or start:stop:step")
    p.add_argument("--symbols-per-block", type=int, default=100_000)
    p.add_argument("--quantizer-levels", type=int, default=None)
    p.add_argument("--quantizer-step", type=float, default=None)
    p.add_argument("--code-rate", type=float, default=None,
                   help="optional rate for the code-rate-bound column")
    p.add_argument("--trace-dir", default=None,
                   help="also dump one binary L-value trace per point")
    p.add_argument("--out", default="-", help="CSV path or - for stdout")
    p.add_argument("--json-out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fecscan", help="post-FEC BER vs metrics over an SNR grid")
    _add_format_args(p)
    p.add_argument("--snr-db", required=True)
    p.add_argument("--codewords", type=int, default=100)
    p.add_argument("--code-file", default=None, help="alist file; default: shipped code")
    p.add_argument("--rate", default=None, help="generate a code of this rate instead")
    p.add_argument("--n", type=int, default=1008, help="length for --rate")
    p.add_argument("--code-seed", type=int, default=1)
    p.add_argument("--mapping", choices=["fs1", "fs2", "r", "fu"], default="fs1")
    p.add_argument("--mapping-seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--out", default="-")
    p.add_argument("--json-out", default=None)
    p.set_defaults(fn=cmd_fecscan)

    p = sub.add_parser("ingest", help="metric report from a stored L-value trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--code-rate", type=float, default=None)
    p.add_argument("--r-loss", type=float, default=0.0)
    p.add_argument("--out", default="-")
    p.add_argument("--json-out", default=None)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("codegen", help="generate a parity-check matrix, write alist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", required=True)
    p.add_argument("--code-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("pmf", help="emit a quantized amplitude composition as JSON")
    p.add_argument("--preset", choices=["i", "ii", "iii"], required=True)
    p.add_argument("--n-pam", type=int, default=1024)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_pmf)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
