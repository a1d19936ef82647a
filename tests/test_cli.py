"""CLI behavior: schemas, determinism, validation exits, round trips."""

import json

import numpy as np
import pytest

from psbicm import cli
from psbicm.cli import FECSCAN_SCHEMA, METRICS_SCHEMA, _csv_header, _parse_grid, main
from psbicm.fec import read_alist
from psbicm.metrics import MetricReport


def run(tmp_path, *argv):
    return main(list(argv))


def test_parse_grid_forms():
    assert _parse_grid("0,2,4") == [0.0, 2.0, 4.0]
    assert _parse_grid("0:10:2") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert _parse_grid("1.5:2.5:0.5") == [1.5, 2.0, 2.5]
    with pytest.raises(ValueError):
        _parse_grid("3:1:-1")
    with pytest.raises(ValueError):
        _parse_grid(",")


def test_pmf_subcommand(tmp_path):
    out = tmp_path / "comp.json"
    assert main(["pmf", "--preset", "i", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["counts"] == [715, 269, 38, 2]
    assert doc["n_pam"] == 1024 and doc["k_ps"] == 1076
    assert 0.0 < doc["rate_loss"] < 0.05


def test_sweep_csv_and_json(tmp_path):
    out = tmp_path / "sweep.csv"
    jout = tmp_path / "sweep.json"
    argv = ["sweep", "--format", "qpsk", "--snr-db", "0,4", "--seed", "3",
            "--symbols-per-block", "20000", "--out", str(out),
            "--json-out", str(jout)]
    assert main(argv) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "snr_db," + _csv_header(MetricReport)
    assert len(lines) == 3
    rows = [dict(zip(lines[0].split(","), map(float, l.split(",")))) for l in lines[1:]]
    assert rows[0]["snr_db"] == 0.0 and rows[1]["snr_db"] == 4.0
    assert rows[1]["asi"] > rows[0]["asi"]                 # more SNR, more ASI
    assert rows[0]["pre_fec_ber"] > rows[1]["pre_fec_ber"]

    doc = json.loads(jout.read_text())
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["config"]["format"] == "qpsk" and doc["config"]["seed"] == 3
    assert doc["rows"][1]["asi"] == rows[1]["asi"]
    assert sorted(doc["rows"][0]) == sorted(lines[0].split(","))


def test_sweep_deterministic_and_worker_invariant(tmp_path, monkeypatch):
    outs = []
    for name, workers in [("a.csv", None), ("b.csv", None), ("c.csv", "2")]:
        if workers is None:
            monkeypatch.delenv("PSBICM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PSBICM_WORKERS", workers)
        out = tmp_path / name
        assert main(["sweep", "--format", "16qam", "--snr-db", "2,6,10",
                     "--symbols-per-block", "10000", "--seed", "9",
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] == outs[2]


def test_sweep_validation_failures(tmp_path):
    base = ["sweep", "--snr-db", "0", "--out", str(tmp_path / "x.csv")]
    assert main(base + ["--symbols-per-block", "100"]) == 2
    assert main(["sweep", "--snr-db", "0", "--format", "qpsk",
                 "--pmf-preset", "i", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(base + ["--quantizer-levels", "64"]) == 2
    assert main(["sweep", "--snr-db", ",", "--out", str(tmp_path / "x.csv")]) == 2


def test_fecscan_small_run(tmp_path):
    out = tmp_path / "scan.csv"
    jout = tmp_path / "scan.json"
    argv = ["fecscan", "--format", "qpsk", "--snr-db", "8", "--rate", "1/2",
            "--n", "96", "--codewords", "8", "--mapping", "fs1",
            "--out", str(out), "--json-out", str(jout)]
    assert main(argv) == 0
    header, row = out.read_text().strip().split("\n")
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["post_fec_ber"]) == 0.0 and vals["hd_fec_pass"] == "1"
    assert float(vals["asi"]) > 0.9
    # ints are written as ints, and the BP failure counts are columns
    assert vals["frames"] == "8"
    assert vals["bp_failures"] == "0" and vals["restarts_used"] == "0"
    assert vals["bit_errors"] == vals["frame_errors"] == vals["undetected_frame_errors"] == "0"
    doc = json.loads(jout.read_text())
    assert doc["schema"] == FECSCAN_SCHEMA
    assert list(doc["rows"][0]) == sorted(header.split(","))
    assert doc["rows"][0]["frames"] == 8 and doc["rows"][0]["hd_fec_pass"] is True

    assert main(["fecscan", "--snr-db", "8", "--code-file", "x.alist",
                 "--rate", "1/2", "--out", str(out)]) == 2


def test_fecscan_rejects_negative_max_iter(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["fecscan", "--format", "qpsk", "--snr-db", "8", "--rate", "1/2",
                 "--n", "96", "--codewords", "2", "--max-iter", "-4",
                 "--out", str(out)]) == 2
    assert "max_iter must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def test_fecscan_shaped_preset_fails_before_dispatch(tmp_path, monkeypatch):
    # preset i on the shipped rate-1/2 code has more parity bits than sign
    # slots (n - k = 504 > n/bar_m = 336); no grid point may start
    def no_dispatch(fn, configs):
        raise AssertionError("dispatched an infeasible scan")

    monkeypatch.setattr(cli, "_dispatch", no_dispatch)
    assert main(["fecscan", "--format", "64qam", "--pmf-preset", "i",
                 "--snr-db", "8", "--out", str(tmp_path / "x.csv")]) == 2


def test_ingest_matches_sweep_row(tmp_path):
    tdir = tmp_path / "traces"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--format", "64qam", "--snr-db", "12", "--seed", "5",
                 "--symbols-per-block", "10000", "--trace-dir", str(tdir),
                 "--out", str(out)]) == 0
    ing = tmp_path / "ingest.csv"
    assert main(["ingest", "--trace", str(tdir / "point_000.lvt"),
                 "--out", str(ing)]) == 0
    sweep_lines = out.read_text().strip().split("\n")
    ing_lines = ing.read_text().strip().split("\n")
    # identical report row (the sweep row carries a leading snr_db column)
    assert sweep_lines[1].split(",", 1)[1] == ing_lines[1]


def test_ingest_consistency_slopes(tmp_path):
    # QPSK traces, matched and with the receiver assuming 3 dB less SNR:
    # the log-ratio slope is s_o/s, about 1 and about 2.  The fit needs
    # 1000 samples of each bit value in a bin, hence the long low-SNR trace.
    slopes = []
    for offset in ("0", "-3"):
        tdir = tmp_path / f"traces{offset}"
        out = tmp_path / f"sweep{offset}.csv"
        assert main(["sweep", "--format", "qpsk", "--snr-db", "2", "--seed", "4",
                     "--symbols-per-block", "200000", "--assumed-snr-offset-db", offset,
                     "--trace-dir", str(tdir), "--out", str(out)]) == 0
        trace = str(tdir / "point_000.lvt")
        plain, ing, jout = (tmp_path / f"{name}{offset}" for name in ("plain", "ing", "doc"))
        assert main(["ingest", "--trace", trace, "--out", str(plain)]) == 0
        assert main(["ingest", "--trace", trace, "--out", str(ing),
                     "--json-out", str(jout)]) == 0
        assert ing.read_text() == plain.read_text()          # CSV unchanged
        doc = json.loads(jout.read_text())
        assert doc["schema"] == METRICS_SCHEMA and len(doc["rows"]) == 1
        (fit,) = doc["consistency"]                          # one tributary
        assert fit["tributary"] == 1 and 0.0 < fit["coverage"] <= 1.0
        slopes.append(fit["slope"])
    assert slopes[0] == pytest.approx(1.0, rel=0.05)
    assert slopes[1] == pytest.approx(10 ** 0.3, rel=0.05)


def test_ingest_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.lvt"
    bad.write_bytes(b"not a trace file at all")
    assert main(["ingest", "--trace", str(bad), "--out", "-"]) == 2
    assert main(["ingest", "--trace", str(tmp_path / "missing.lvt")]) == 2


def test_codegen_roundtrip(tmp_path, capsys):
    out = tmp_path / "code.alist"
    assert main(["codegen", "--n", "96", "--rate", "1/2", "--code-seed", "7",
                 "--out", str(out)]) == 0
    code = read_alist(out)
    assert code.n == 96 and code.rate == 0.5
    assert "n=96" in capsys.readouterr().err
