"""CLI tests, run in process through symrank.cli.main."""

import csv
import hashlib
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from symrank import SymSetup
from symrank.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_setup_branches(tmp_path, capsys):
    out = tmp_path / "setup.json"
    assert main(["setup", "--p", "2", "--n", "4", "--out", str(out)]) == 0
    assert "q even" in capsys.readouterr().err
    st = SymSetup.from_json(json.loads(out.read_text()))
    assert st.field.q == 2 and st.field.n == 4 and st.u == 1

    assert main(["setup", "--p", "3", "--n", "3", "--out", str(out)]) == 0
    assert "q and n odd" in capsys.readouterr().err

    assert main(["setup", "--p", "3", "--n", "2", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "non-square" in err and "u = 4" in err
    st = SymSetup.from_json(json.loads(out.read_text()))
    assert st.u == 4


def test_setup_to_stdout(capsys):
    assert main(["setup", "--p", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert SymSetup.from_json(doc).field.n == 2


def test_setup_explicit_moduli(tmp_path, capsys):
    out = tmp_path / "st.json"
    code = main(["setup", "--p", "2", "--e", "2", "--n", "2",
                 "--g", "[1,1,1]", "--f", "[[0,1],[1,0],[1,0]]",
                 "--out", str(out)])
    assert code == 0
    st = SymSetup.from_json(json.loads(out.read_text()))
    assert st.field.modulus == (2, 1, 1)
    capsys.readouterr()


def test_roundtrip_standard_success(tmp_path):
    out = tmp_path / "report.json"
    code = main(["roundtrip", "--p", "2", "--n", "8", "--k", "2",
                 "--mode", "standard", "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outcome"] == "success"
    assert report["rank"] == 3  # default: floor((n-k)/2)
    assert report["decoded"] == report["instance"]["codeword"]
    assert "decode_micros" in report


def test_roundtrip_no_timing_key(tmp_path):
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--p", "2", "--n", "8", "--k", "2",
                 "--mode", "standard", "--no-timing", "--out", str(out)]) == 0
    assert "decode_micros" not in json.loads(out.read_text())


def test_roundtrip_failure_exit(tmp_path):
    out = tmp_path / "report.json"
    code = main(["roundtrip", "--p", "2", "--n", "8", "--k", "2",
                 "--mode", "standard", "--rank", "5", "--seed", "1",
                 "--out", str(out)])
    assert code == 1


def test_roundtrip_sym_low(tmp_path):
    out = tmp_path / "report.json"
    code = main(["roundtrip", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "sym-low", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 6  # any rank, up to n


def test_roundtrip_sym_high_boundary_exit_codes(tmp_path):
    # at rank exactly n-k both unique and ambiguous instances exist
    seen = set()
    for seed in range(1, 40):
        code = main(["roundtrip", "--p", "3", "--n", "6", "--k", "4",
                     "--mode", "sym-high", "--rank", "2", "--seed", str(seed),
                     "--out", str(tmp_path / "r.json"), "--no-timing"])
        seen.add(code)
        if seen >= {0, 2}:
            break
    assert seen == {0, 2}


def test_simulate_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--p", "2", "--n", "8", "--k", "4",
            "--mode", "standard", "--trials", "5", "--seed", "9", "--no-timing"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == ["q", "n", "k", "mode", "rank", "trials", "successes",
                       "ambiguous", "failures", "mean_decode_micros"]
    assert len(rows) == 1 + 3  # ranks 0..floor((8-4)/2)
    for row in rows[1:]:
        assert row[0:4] == ["2", "8", "4", "standard"]
        assert row[5] == "5" and row[6] == "5"  # all trials succeed
        assert row[9] == "0"  # timing zeroed


def test_simulate_single_rank_with_timing(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "sym-low", "--rank", "3", "--trials", "4",
                 "--seed", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[1][4] == "3"
    assert int(rows[1][9]) > 0  # mean decode time in microseconds


def test_simulate_timing_column_is_mean(tmp_path, monkeypatch):
    # decodes of 1, 1 and 7 us: the mean is 3, the median would be 1
    ticks = iter([0, 1000, 10_000, 11_000, 20_000, 27_000])
    monkeypatch.setattr("symrank.cli.time",
                        SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
    out = tmp_path / "m.csv"
    assert main(["simulate", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "standard", "--rank", "1", "--trials", "3",
                 "--out", str(out)]) == 0
    assert read_csv(out)[1][9] == "3"


def test_simulate_instance_log(tmp_path):
    out = tmp_path / "s.csv"
    log1 = tmp_path / "log1.jsonl"
    log2 = tmp_path / "log2.jsonl"
    args = ["simulate", "--p", "3", "--n", "4", "--k", "3", "--mode", "sym-high",
            "--rank", "0", "--trials", "3", "--seed", "4", "--no-timing"]
    assert main(args + ["--out", str(out), "--instance-log", str(log1)]) == 0
    assert main(args + ["--out", str(out), "--instance-log", str(log2)]) == 0
    assert log1.read_bytes() == log2.read_bytes()
    lines = [json.loads(line) for line in log1.read_text().splitlines()]
    assert len(lines) == 3
    for i, line in enumerate(lines):
        assert line["trial"] == i
        assert line["code"] == {"q": 3, "n": 4, "k": 3, "mode": "sym-high",
                                "rank": 0}
        assert {"seed", "codeword", "error", "received"} <= set(line)


# SHA-256 of the `simulate --no-timing` CSV and instance log at --trials 5,
# seed 1.  Refactors must leave the decoders' outputs byte-identical; a
# deliberate change of behaviour re-pins these with the reason on record.
PINNED_SIMULATE = {
    ("standard", 2, 6, 2): (
        "2e0380c0ce16f56935edc6d4aa32a7e1f48c73b358f0c304d177a2fa35b01b99",
        "08439fdf5c96365949d5b109e599e5be4182e1659545a11405873363e7147b9a"),
    ("sym-low", 2, 6, 2): (
        "35c48d7b57f281c8164225b49e5943548e38f77d42e15bdfd484b87c86ad5f10",
        "dca8306c1de5abb0074cc904dbba82cce45d49721851f0b8ffdc6830a112a4b4"),
    ("sym-high", 2, 6, 4): (
        "f88266d7415c4fdb263bd325bc448bd336a23b59331d170c44be7c3099fb56b2",
        "3bdacfb35c157317b3a2512aae342099a0cfa8f836507a9048fc5c86bc0775eb"),
    ("sym-high", 3, 5, 3): (
        "f9a17cf32ed9ca6016209b5dad67d37af9b27568f864b897787386381f3b37eb",
        "1ffb79ad5bdeab111cb74ed84e4bd1fc558dd8f45c1016ad1358f23ac004b30f"),
}


@pytest.mark.parametrize("mode,p,n,k", sorted(PINNED_SIMULATE))
def test_simulate_outputs_pinned(tmp_path, mode, p, n, k):
    out = tmp_path / "s.csv"
    log = tmp_path / "s.jsonl"
    assert main(["simulate", "--mode", mode, "--p", str(p), "--n", str(n),
                 "--k", str(k), "--trials", "5", "--no-timing",
                 "--out", str(out), "--instance-log", str(log)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, log))
    assert digests == PINNED_SIMULATE[(mode, p, n, k)]


def test_setup_file_reuse(tmp_path):
    st_path = tmp_path / "setup.json"
    assert main(["setup", "--p", "2", "--n", "6", "--out", str(st_path)]) == 0
    code = main(["roundtrip", "--mode", "sym-low", "--k", "2",
                 "--setup-file", str(st_path), "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "p": 2, "n": 8, "k": 4, "mode": "standard", "trials": 4,
        "no_timing": True, "seed": 3,
    }))
    out = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--trials", "2",
                 "--rank", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[1][5] == "2"  # flag wins over config file


def test_config_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 2, "banana": 1}')
    assert main(["simulate", "--config", str(bad), "--mode", "standard",
                 "--k", "1", "--n", "4"]) == 3
    bad.write_text("{not json")
    assert main(["setup", "--config", str(bad)]) == 3
    assert main(["roundtrip", "--p", "2", "--n", "8", "--mode", "standard"]) == 3
    assert main(["roundtrip", "--p", "2", "--n", "6", "--k", "4",
                 "--mode", "sym-low"]) == 3
    assert main(["roundtrip", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "sym-high"]) == 3
    capsys.readouterr()
    # k is checked before a decoder exists, so the CLI's own message shows
    assert main(["roundtrip", "--p", "2", "--n", "8", "--k", "3",
                 "--mode", "sym-high"]) == 3
    assert "sym-high needs k > n/2" in capsys.readouterr().err
    assert main(["roundtrip", "--p", "2", "--n", "6", "--k", "9",
                 "--mode", "standard"]) == 3
    assert main(["setup", "--p", "2", "--n", "4", "--f", "{bad"]) == 3
    assert main(["setup"]) == 3  # missing --p/--n
    assert main(["no-such-command"]) == 3
    assert main(["simulate", "--mode", "bogus", "--p", "2", "--n", "4",
                 "--k", "1"]) == 3
    capsys.readouterr()


def test_radius_table_full(tmp_path):
    out = tmp_path / "radius.csv"
    assert main(["radius-table", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["rate", "thick", "dashed", "dotted"]
    assert len(rows) == 102
    table = {row[0]: row[1:] for row in rows[1:]}
    assert table["0.000000"] == ["1.000000", "0.500000", "0.666667"]
    assert table["0.500000"] == ["1.000000", "0.250000", "0.333333"]
    assert table["0.750000"] == ["0.250000", "0.125000", "0.166667"]
    assert table["1.000000"] == ["0.000000", "0.000000", "0.000000"]


def test_radius_table_per_code(tmp_path):
    out = tmp_path / "radius_n.csv"
    assert main(["radius-table", "--n", "6", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["k", "rate", "thick", "dashed", "dotted"]
    assert len(rows) == 8
    assert rows[1][0] == "0" and rows[-1][0] == "6"
    assert rows[4][1] == "0.500000" and rows[4][2] == "1.000000"


def test_module_entry_point(tmp_path):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "symrank", "radius-table", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
