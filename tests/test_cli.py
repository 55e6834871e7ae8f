"""CLI tests, run in process through symrank.cli.main."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import symrank
from symrank import SymSetup
from symrank.cli import _Bench, main
from helpers import get_field


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


# SHA-256 of the setup JSON on stdout, per (p, e, n); (2,1,17) is past
# TABLE_LIMIT, so its basis is built on table-free arithmetic
PINNED_SETUP = {
    (2, 1, 8):
        "fd381560842589e946b2a59046f0d7a70334e56e91db0e5591259ae0a71a2f1b",
    (3, 1, 6):
        "6cf609653659f648e081bdf5f303a72d870a31bf3d3293663d1f0bc40b915e79",
    (3, 1, 4):
        "9eb20c0fb98a4b3e0d2c064728514fa801e6c2a3a05721b7618d959a1c3e855d",
    (5, 1, 4):
        "d6d19eb94947bee6ea53337f0102886aadebedf25db74a65eb74272fa5dca63b",
    (2, 2, 4):
        "1f467f0e53fad0c63e98c7c7ac45ae6a801f91ec5d7881949dfdb619dd1c4c75",
    (2, 1, 17):
        "07c439853b5d540bbc7faa8dd42c0a421b4cb4abe125c16bab7518992f49f746",
}


@pytest.mark.parametrize("p,e,n", sorted(PINNED_SETUP))
def test_setup_output_pinned(p, e, n, capsys):
    assert main(["setup", "--p", str(p), "--e", str(e), "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SETUP[(p, e, n)]


def test_setup_base_field_past_table_limit_exits_3(capsys):
    # F_q always runs on tables, so q > TABLE_LIMIT is a config error; each
    # q is just past the limit, so even building its tables would be cheap
    for flags in (["--p", "2", "--e", "17", "--n", "1"],
                  ["--p", "65537", "--n", "2"],
                  ["--p", "257", "--e", "2", "--n", "1"]):
        assert main(["setup"] + flags) == 3
        assert "exceeds the base field limit" in capsys.readouterr().err


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


def test_roundtrip_field_past_64_bits(tmp_path):
    # a uniform element of F_(2^70) takes two 64-bit draws
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--p", "2", "--n", "70", "--k", "60",
                 "--mode", "standard", "--rank", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "success"


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


def test_roundtrip_sym_high_boundary_past_old_cap(tmp_path):
    # (2, 12, 8) at rank n-k walks 4097 localisers, beyond the old cap of
    # 1024: every decode is answered, never a failure
    for seed in range(1, 5):
        out = tmp_path / "r.json"
        code = main(["roundtrip", "--p", "2", "--n", "12", "--k", "8",
                     "--mode", "sym-high", "--rank", "4", "--seed", str(seed),
                     "--out", str(out), "--no-timing"])
        report = json.loads(out.read_text())
        assert (code, report["outcome"]) in ((0, "success"), (2, "ambiguous"))
        if code == 0:
            assert report["decoded"] == report["instance"]["codeword"]


def test_roundtrip_sym_high_boundary_table_free(tmp_path):
    # (2, 17, 10) is past the exp/log table limit: the boundary pencil runs
    # on the table-free field, and the decode is answered
    out = tmp_path / "r.json"
    code = main(["roundtrip", "--mode", "sym-high", "--p", "2", "--n", "17",
                 "--k", "10", "--seed", "3", "--out", str(out), "--no-timing"])
    report = json.loads(out.read_text())
    assert (code, report["outcome"]) == (0, "success")
    assert report["decoded"] == report["instance"]["codeword"]


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
        assert line["outcome"] == "success"
        assert line["decoded"] == line["codeword"]
    # a failed trial says so: rank 2 is past the standard radius (6-2)//2 = 1
    # at (2,6,4), so no trial decodes to the sent word
    assert main(["simulate", "--p", "2", "--n", "6", "--k", "4", "--mode",
                 "standard", "--rank", "2", "--trials", "4", "--no-timing",
                 "--out", str(out), "--instance-log", str(log1)]) == 0
    lines = [json.loads(line) for line in log1.read_text().splitlines()]
    assert [line["outcome"] for line in lines] == ["failure"] * 4
    assert all(line["decoded"] != line["codeword"] for line in lines)


# SHA-256 of the `simulate --no-timing` CSV and instance log at --trials 5,
# seed 1, keyed on (mode, q, n, k).  Refactors must leave the decoders'
# outputs byte-identical; a deliberate change of behaviour re-pins these
# with the reason on record.  q = 4 is an e > 1 field, and (3, 4) needs a
# twist u != 1, picked through the norm.
PINNED_SIMULATE = {
    ("standard", 2, 6, 2): (
        "2e0380c0ce16f56935edc6d4aa32a7e1f48c73b358f0c304d177a2fa35b01b99",
        "facfdfad5f4ee5513ca9f3355bb06d522395d74917ef8154cce9382e0b159fcd"),
    ("sym-low", 2, 6, 2): (
        "35c48d7b57f281c8164225b49e5943548e38f77d42e15bdfd484b87c86ad5f10",
        "3662145a7a5665af78abf94c1566c9bafdcb458ae020a62521759ed47e1f43d9"),
    ("sym-low", 3, 5, 2): (
        "cd83eb1725d05f2fa9b2c11d7815a2b13ca748357bd855cdd95aead7e0d7ff3a",
        "86deed3283c048a15c69a75569ce35008051fe3333dd145e32553f1e96b88784"),
    ("sym-low", 4, 4, 1): (
        "80f3263920a2eee534b7ed5c6528f085f07f23384f504e309433914b7235bc55",
        "92cdb9b5c226139806dd46972ada374f91665a870c448351d2f05464bae5b51d"),
    ("sym-high", 2, 6, 4): (
        "f88266d7415c4fdb263bd325bc448bd336a23b59331d170c44be7c3099fb56b2",
        "754d9622d00057886e9d69dd9720f20a7bf7e11f3888c2a555ccd7af2355a6b5"),
    ("sym-high", 3, 5, 3): (
        "f9a17cf32ed9ca6016209b5dad67d37af9b27568f864b897787386381f3b37eb",
        "e5291562a121776c51e730eaf8223010c5c5e59c578d073a4616e6ed76a4e5ab"),
    ("sym-high", 3, 4, 3): (
        "c55ba0d2c847bf5cc999c1d23cfac13ebe0e122eb0c101a0840ae5f08a82969c",
        "e573a6efabf3c918d4434626388c99656a692b377b585a795d9a9bdb2a86b7d0"),
    ("sym-high", 4, 4, 3): (
        "5f1a3e2f8a6a9f59d586465d0d3c79ad71915be59724051f1120317997a5de2a",
        "fd4b13e696387c1c02469aa0624a4a03ad30134e8f372d243b2ea6afcf4d4c5d"),
}


@pytest.mark.parametrize("mode,q,n,k", sorted(PINNED_SIMULATE))
def test_simulate_outputs_pinned(tmp_path, mode, q, n, k):
    out = tmp_path / "s.csv"
    log = tmp_path / "s.jsonl"
    p, e = (2, 2) if q == 4 else (q, 1)
    assert main(["simulate", "--mode", mode, "--p", str(p), "--e", str(e),
                 "--n", str(n), "--k", str(k), "--trials", "5", "--no-timing",
                 "--out", str(out), "--instance-log", str(log)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, log))
    assert digests == PINNED_SIMULATE[(mode, q, n, k)]


def test_simulate_bad_output_path_fails_before_trials(tmp_path, monkeypatch):
    trials = []
    monkeypatch.setattr(_Bench, "run", lambda self, rank, rng: trials.append(rank))
    missing = str(tmp_path / "missing-dir" / "x.jsonl")
    for flag in ("--instance-log", "--out"):
        assert main(["simulate", "--p", "2", "--n", "8", "--k", "4",
                     "--mode", "standard", "--trials", "200",
                     "--out", str(tmp_path / "ok.csv"), flag, missing]) == 3
    assert trials == []


def test_setup_file_reuse(tmp_path):
    st_path = tmp_path / "setup.json"
    assert main(["setup", "--p", "2", "--n", "6", "--out", str(st_path)]) == 0
    code = main(["roundtrip", "--mode", "sym-low", "--k", "2",
                 "--setup-file", str(st_path), "--out", str(tmp_path / "r.json")])
    assert code == 0
    # field flags that agree with the file are accepted
    field = json.loads(st_path.read_text())["field"]
    flags = [arg for key in ("p", "e", "n", "g", "f")
             for arg in (f"--{key}", json.dumps(field[key]))]
    code = main(["roundtrip", "--mode", "sym-low", "--k", "2", *flags,
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
    # a k outside its mode's range is refused by the code or decoder the CLI
    # builds, whose own message shows, as one error line
    for argv, text in (
            (["--n", "8", "--k", "3", "--mode", "sym-high"],
             "k <= n/2: use LowRateDecoder"),
            (["--n", "8", "--k", "8", "--mode", "sym-high"], "k must be < n"),
            (["--n", "6", "--k", "7", "--mode", "standard"],
             "dimension k = 7 out of range 0..6")):
        assert main(["roundtrip", "--p", "2"] + argv) == 3
        err = capsys.readouterr().err
        assert err.count("symrank: error:") == 1 and text in err
    # the CLI checks a rank itself: no trial runs at --trials 0
    assert main(["simulate", "--p", "2", "--n", "8", "--k", "4", "--mode",
                 "standard", "--trials", "0", "--rank", "99"]) == 3
    assert capsys.readouterr().err.count("symrank: error:") == 1
    # rate exactly 1/2 is outside sym-low: Gab_{n/2} o X^q meets Sym
    for cmd in ("roundtrip", "simulate"):
        for p, n, k in ((2, 4, 2), (3, 6, 3)):
            assert main([cmd, "--p", str(p), "--n", str(n), "--k", str(k),
                         "--mode", "sym-low", "--trials", "1"]) == 3
            assert "sym-low needs 0 < k < n/2" in capsys.readouterr().err
    assert main(["roundtrip", "--p", "2", "--n", "6", "--k", "9",
                 "--mode", "standard"]) == 3
    assert main(["setup", "--p", "2", "--n", "4", "--f", "{bad"]) == 3
    assert main(["setup"]) == 3  # missing --p/--n
    assert main(["no-such-command"]) == 3
    assert main(["simulate", "--mode", "bogus", "--p", "2", "--n", "4",
                 "--k", "1"]) == 3
    # every invalid input exits 3, never with a traceback (exit 1 is a
    # decode failure)
    for rank in ("99", "-1"):
        assert main(["roundtrip", "--p", "2", "--n", "8", "--k", "2",
                     "--mode", "standard", "--rank", rank]) == 3
    assert main(["roundtrip", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "sym-low", "--rank", "7"]) == 3
    assert main(["simulate", "--p", "2", "--n", "6", "--k", "2",
                 "--mode", "standard", "--trials", "-3"]) == 3
    for flags in (["--p", "4", "--n", "2"], ["--p", "2", "--n", "0"],
                  ["--p", "2", "--n", "2", "--e", "0"],
                  ["--p", "2", "--e", "2", "--n", "2", "--g", "[1,3,1]"]):
        assert main(["setup"] + flags) == 3
    setup_file = tmp_path / "setup.json"
    setup_file.write_text("{not json")
    for argv in (["setup"], ["roundtrip", "--mode", "sym-low", "--k", "2"]):
        assert main(argv + ["--setup-file", str(setup_file)]) == 3
    doc = SymSetup(get_field(2, 1, 4)).to_json()
    del doc["field"]["e"]
    setup_file.write_text(json.dumps(doc))
    assert main(["roundtrip", "--mode", "sym-low", "--k", "2",
                 "--setup-file", str(setup_file)]) == 3
    for wrong in ({"p": "2"}, {"k": "2"}, {"mode": "bogus"},
                  {"out": ["r.json"]}):
        bad.write_text(json.dumps(dict({"p": 2, "n": 6, "k": 2,
                                        "mode": "standard"}, **wrong)))
        assert main(["roundtrip", "--config", str(bad)]) == 3
    # the config keys are the parser's destinations, less config and command
    capsys.readouterr()
    for wrong in ({"config": str(bad)}, {"command": "setup"}):
        bad.write_text(json.dumps(dict({"p": 2, "n": 6}, **wrong)))
        assert main(["setup", "--config", str(bad)]) == 3
        assert "unknown config keys" in capsys.readouterr().err
    # a config document that is not a JSON object, or not UTF-8
    for raw in (b"5", b"null", b'"abc"', b"[1, 2]", b"\xff\xfe",
                '{"p": "\u00e9"}'.encode("latin-1")):
        bad.write_bytes(raw)
        capsys.readouterr()
        assert main(["setup", "--config", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.count("symrank: error:") == 1 and "unknown config keys" not in err
    # a setup file whose field keys or coefficients have the wrong JSON type,
    # or that is not a JSON object, or not UTF-8, is refused, never coerced
    good = SymSetup(get_field(2, 1, 4)).to_json()
    raws = [json.dumps(dict(good, field=dict(good["field"], **wrong))).encode()
            for wrong in ({"p": 2.7}, {"p": "2"}, {"n": 4.9}, {"e": True},
                          {"g": "01"}, {"f": [[1], [True], [0], [0], [1]]})]
    raws += [json.dumps(dict(good, u=[[1], [0], [False], [0]])).encode(),
             json.dumps(dict(good, u=[[1.0], [0], [0], [0]])).encode()]
    # or whose parts have the wrong shape
    raws += [json.dumps(dict(good, **wrong)).encode()
             for wrong in ({"field": 5}, {"u": 5}, {"basis": [5, 5, 5, 5]},
                           {"basis": 7},
                           {"field": dict(good["field"], f=[5, 5, 5, 5, 5])})]
    for raw in raws + [b"5", b"null", b"[1]", b"\xff\xfe"]:
        setup_file.write_bytes(raw)
        capsys.readouterr()
        assert main(["setup", "--setup-file", str(setup_file)]) == 3
        err = capsys.readouterr().err
        assert err.count("symrank: error:") == 1 and "object is not" not in err
    # a zero twist is named as such, not as a basis fault
    setup_file.write_text(json.dumps(dict(good, u=[[0], [0], [0], [0]])))
    assert main(["setup", "--setup-file", str(setup_file)]) == 3
    err = capsys.readouterr().err
    assert err.count("symrank: error:") == 1 and "twist u must be nonzero" in err
    # a setup file fixes the field: a field flag or config key that names
    # another field is an error, never silently overridden by the file
    setup_file.write_text(json.dumps(SymSetup(get_field(2, 1, 6)).to_json()))
    capsys.readouterr()
    assert main(["roundtrip", "--p", "3", "--n", "8", "--k", "5",
                 "--mode", "sym-high", "--setup-file", str(setup_file)]) == 3
    assert "disagrees with the setup file" in capsys.readouterr().err
    f_other = json.dumps([[1], [1], [0], [1], [1], [0], [1]])
    for flags in (["--p", "3"], ["--e", "2"], ["--n", "8"], ["--g", "[1, 1]"],
                  ["--f", f_other]):
        assert main(["roundtrip", "--k", "4", "--mode", "sym-high",
                     "--setup-file", str(setup_file)] + flags) == 3
        assert "disagrees with the setup file" in capsys.readouterr().err
    bad.write_text(json.dumps({"p": 3, "k": 4, "mode": "sym-high",
                               "setup_file": str(setup_file)}))
    assert main(["roundtrip", "--config", str(bad)]) == 3
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
    # the child imports the same symrank as this suite, installed or not
    src = os.path.dirname(os.path.dirname(symrank.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "symrank", "radius-table", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.exists()
