"""Command line front end.

Subcommands:
  setup         build a field tower + twist + orthonormal basis, save as JSON
  roundtrip     encode -> corrupt -> decode once, print a JSON report
  simulate      Monte-Carlo campaign, CSV of success rates per error rank
  radius-table  theoretical relative decoding radius curves per rate

Flags may come from --config (a JSON object with the same keys); explicitly
given flags win.  Exit codes: 0 success, 1 decode failure (including an
'incomplete' report, whose localiser walk was cut at its cap), 2 ambiguity,
3 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .bilinear import OrthonormalBasisError, SymSetup
from .channel import (RngStream, random_codeword, random_selfadjoint_qpoly,
                      random_symmetric_matrix)
from .gabidulin import GabCode, random_error, wb_decode
from .gf import BaseField, ExtField
from .qpoly import matrix_of
from .symdec import HighRateDecoder, InvalidInstanceError, LowRateDecoder, \
    matrix_code_of

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_AMBIGUOUS = 2
EXIT_CONFIG = 3

MODES = ("standard", "sym-low", "sym-high")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # ambiguity exit code; route usage problems to the config exit instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="symrank",
                     description="Gabidulin codes with symmetric-error decoders")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("setup", "write a field + orthonormal basis JSON file"),
                        ("roundtrip", "one encode/corrupt/decode cycle"),
                        ("simulate", "Monte-Carlo success-rate campaign (CSV)"),
                        ("radius-table", "theoretical radius curves (CSV)")):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(command=name)
        sp.add_argument("--config", default=None,
                        help="JSON file with defaults for the flags below")
        sp.add_argument("--p", type=int, default=None, help="characteristic")
        sp.add_argument("--e", type=int, default=None,
                        help="degree of F_q over F_p (default 1)")
        sp.add_argument("--n", type=int, default=None,
                        help="degree of F_{q^n} over F_q")
        sp.add_argument("--k", type=int, default=None, help="code dimension")
        sp.add_argument("--mode", choices=MODES, default=None)
        sp.add_argument("--rank", type=int, default=None,
                        help="error rank (default depends on mode)")
        sp.add_argument("--trials", type=int, default=None,
                        help="trials per rank (default 100)")
        sp.add_argument("--seed", type=int, default=None,
                        help="master RNG seed (default 1)")
        sp.add_argument("--out", default=None,
                        help="output path (default stdout)")
        sp.add_argument("--setup-file", dest="setup_file", default=None,
                        help="reuse a setup JSON written by `symrank setup`")
        sp.add_argument("--g", default=None,
                        help="JSON modulus of F_q over F_p, e.g. [1,1,1]")
        sp.add_argument("--f", default=None,
                        help="JSON modulus of F_{q^n} over F_q "
                             "(list of F_p coefficient vectors)")
        sp.add_argument("--no-timing", dest="no_timing", action="store_true",
                        default=None, help="zero the timing column "
                        "(byte-identical CSV across runs)")
        sp.add_argument("--instance-log", dest="instance_log", default=None,
                        help="write per-trial instances as JSON lines")
    return parser


_CONFIG_KEYS = ("p", "e", "n", "k", "mode", "rank", "trials", "seed", "out",
                "setup_file", "g", "f", "no_timing", "instance_log")


def _resolve(args) -> dict:
    cfg = {key: getattr(args, key) for key in _CONFIG_KEYS}
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config JSON: {exc}") from None
        unknown = set(doc) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if cfg[key] is None:
                cfg[key] = value
    if cfg["e"] is None:
        cfg["e"] = 1
    if cfg["seed"] is None:
        cfg["seed"] = 1
    if cfg["trials"] is None:
        cfg["trials"] = 100
    cfg["no_timing"] = bool(cfg["no_timing"])
    cfg["command"] = args.command
    return cfg


def _require(cfg: dict, *keys: str):
    for key in keys:
        if cfg[key] is None:
            raise ConfigError(f"--{key.replace('_', '-')} is required "
                              f"for `{cfg['command']}`")


def _parse_json_flag(value, flag: str):
    if value is None:
        return None
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--{flag} is not valid JSON: {exc}") from None


def _make_field(cfg: dict) -> ExtField:
    _require(cfg, "p", "n")
    g = _parse_json_flag(cfg["g"], "g")
    f = _parse_json_flag(cfg["f"], "f")
    base = BaseField(cfg["p"], cfg["e"], g)
    packed_f = None
    if f is not None:
        packed_f = tuple(base.from_coeffs(c) for c in f)
    return ExtField(base, cfg["n"], packed_f)


def _load_setup(cfg: dict) -> SymSetup:
    if cfg["setup_file"]:
        with open(cfg["setup_file"]) as fh:
            return SymSetup.from_json(json.load(fh))
    return SymSetup(_make_field(cfg))


def _branch(field: ExtField) -> str:
    if field.base.p == 2:
        return "q even: u = 1"
    if field.n % 2 == 1:
        return "q and n odd: u = 1"
    return "q odd, n even: twist u with non-square norm"


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_setup(cfg: dict) -> int:
    setup = _load_setup(cfg)
    print(f"branch: {_branch(setup.field)} (u = {setup.u})", file=sys.stderr)
    _write_text(cfg["out"], json.dumps(setup.to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def _default_rank(mode: str, n: int, k: int) -> int:
    if mode == "standard":
        return (n - k) // 2
    if mode == "sym-low":
        return n
    return n - k


def _rank_sweep(mode: str, n: int, k: int) -> list[int]:
    if mode == "standard":
        return list(range((n - k) // 2 + 1))
    if mode == "sym-low":
        return list(range(n + 1))
    return list(range(n - k + 1))


class _Bench:
    """One mode's decoder, built once, run per trial."""

    def __init__(self, mode: str, setup_or_field, k: int):
        self.mode = mode
        self.k = k
        if mode == "standard":
            self.field = setup_or_field
            self.code = GabCode(self.field, k, 0)
            self.radius = (self.field.n - k) // 2
        elif mode == "sym-low":
            self.setup = setup_or_field
            self.field = self.setup.field
            self.code = GabCode(self.field, k, 1)
            self.decoder = LowRateDecoder(matrix_code_of(self.code, self.setup))
        else:
            self.setup = setup_or_field
            self.field = self.setup.field
            self.decoder = HighRateDecoder(self.setup, k)
            self.code = self.decoder.code
            self.radius = self.decoder.radius

    def run(self, rank: int, rng: RngStream) -> dict:
        """One trial: returns outcome, decode nanoseconds, and the instance."""
        fld = self.field
        codeword = random_codeword(self.code, rng)
        if self.mode == "standard":
            error = random_error(fld, rank, rng)
            received = codeword + error
            start = time.perf_counter_ns()
            rep = wb_decode(self.code, received, self.radius)
            nanos = time.perf_counter_ns() - start
            if rep.status == "ok" and rep.codeword == codeword:
                outcome = "success"
            elif rep.status == "ambiguous":
                outcome = "ambiguous"
            else:
                outcome = "failure"
            decoded = rep.codeword.to_json() if rep.codeword else None
            instance = {"codeword": codeword.to_json(), "error": error.to_json(),
                        "received": received.to_json()}
        elif self.mode == "sym-low":
            cmat = matrix_of(codeword, self.setup)
            error = random_symmetric_matrix(fld.base, fld.n, rank, rng)
            received = cmat + error
            start = time.perf_counter_ns()
            try:
                chat, _ = self.decoder.decode(received)
                outcome = "success" if chat == cmat else "failure"
                decoded = chat.to_json()
            except InvalidInstanceError:
                outcome = "failure"
                decoded = None
            nanos = time.perf_counter_ns() - start
            instance = {"codeword": cmat.to_json(), "error": error.to_json(),
                        "received": received.to_json()}
        else:
            error = random_selfadjoint_qpoly(rank, self.setup, rng)
            received = codeword + error
            start = time.perf_counter_ns()
            rep = self.decoder.decode(received)
            nanos = time.perf_counter_ns() - start
            if rep.status == "ok" and rep.codeword == codeword:
                outcome = "success"
            elif rep.status == "ambiguous":
                outcome = "ambiguous"
            else:
                outcome = "failure"
            decoded = rep.codeword.to_json() if rep.codeword else None
            instance = {"codeword": codeword.to_json(), "error": error.to_json(),
                        "received": received.to_json()}
        return {"outcome": outcome, "nanos": nanos, "instance": instance,
                "decoded": decoded}


def _make_bench(cfg: dict, mode: str, k: int) -> _Bench:
    """Build the field or setup, check k against its n, and only then the
    decoder, so that a bad k never reaches a decoder's constructor."""
    try:
        setup = None
        if mode != "standard" or cfg["setup_file"]:
            setup = _load_setup(cfg)
        field = _make_field(cfg) if setup is None else setup.field
        _validate_mode_k(mode, field.n, k)
        return _Bench(mode, field if mode == "standard" else setup, k)
    except (ValueError, OrthonormalBasisError) as exc:
        raise ConfigError(str(exc)) from None


def _validate_mode_k(mode: str, n: int, k: int):
    if not 0 <= k <= n:
        raise ConfigError(f"k = {k} out of range 0..{n}")
    if mode == "sym-low" and 2 * k > n:
        raise ConfigError("sym-low needs k <= n/2 (and a symmetric-free code)")
    if mode == "sym-high" and 2 * k <= n:
        raise ConfigError("sym-high needs k > n/2; use sym-low below that")
    if mode in ("sym-low", "sym-high") and k >= 1 and k + 1 > n:
        raise ConfigError("shifted support X^q..X^(q^k) needs k < n")


def cmd_roundtrip(cfg: dict) -> int:
    _require(cfg, "mode", "k")
    mode = cfg["mode"]
    bench = _make_bench(cfg, mode, cfg["k"])
    n = bench.field.n
    rank = cfg["rank"] if cfg["rank"] is not None else _default_rank(mode, n, cfg["k"])
    rng = RngStream(cfg["seed"])
    result = bench.run(rank, rng)
    report = {
        "mode": mode,
        "q": bench.field.q,
        "n": n,
        "k": cfg["k"],
        "rank": rank,
        "seed": cfg["seed"],
        "outcome": result["outcome"],
        "decoded": result["decoded"],
        "instance": result["instance"],
    }
    if not cfg["no_timing"]:
        report["decode_micros"] = result["nanos"] // 1000
    _write_text(cfg["out"], json.dumps(report, sort_keys=True, indent=2) + "\n")
    if result["outcome"] == "success":
        return EXIT_OK
    if result["outcome"] == "ambiguous":
        return EXIT_AMBIGUOUS
    return EXIT_FAIL


def cmd_simulate(cfg: dict) -> int:
    _require(cfg, "mode", "k")
    mode = cfg["mode"]
    k = cfg["k"]
    bench = _make_bench(cfg, mode, k)
    n = bench.field.n
    ranks = [cfg["rank"]] if cfg["rank"] is not None else _rank_sweep(mode, n, k)
    trials = cfg["trials"]
    master = RngStream(cfg["seed"])
    log_lines: list[str] = []
    rows = []
    for rank in sorted(ranks):
        counts = {"success": 0, "ambiguous": 0, "failure": 0}
        nanos: list[int] = []
        for trial in range(trials):
            stream = master.fork(rank * trials + trial)
            result = bench.run(rank, stream)
            counts[result["outcome"]] += 1
            nanos.append(result["nanos"])
            if cfg["instance_log"]:
                line = {"trial": trial, "seed": stream.seed,
                        "code": {"q": bench.field.q, "n": n, "k": k,
                                 "mode": mode, "rank": rank}}
                line.update(result["instance"])
                log_lines.append(json.dumps(line, sort_keys=True))
        mean = 0 if cfg["no_timing"] or not nanos else sum(nanos) // (1000 * len(nanos))
        rows.append([bench.field.q, n, k, mode, rank, trials, counts["success"],
                     counts["ambiguous"], counts["failure"], mean])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "n", "k", "mode", "rank", "trials", "successes",
                     "ambiguous", "failures", "mean_decode_micros"])
    writer.writerows(rows)
    _write_text(cfg["out"], buf.getvalue())
    if cfg["instance_log"]:
        with open(cfg["instance_log"], "w", newline="") as fh:
            fh.write("\n".join(log_lines) + ("\n" if log_lines else ""))
    return EXIT_OK


def _radius_row(rate: float) -> list[str]:
    thick = 1.0 if rate <= 0.5 else 1.0 - rate
    dashed = (1.0 - rate) / 2.0
    dotted = 2.0 * (1.0 - rate) / 3.0
    return [f"{rate:.6f}", f"{thick:.6f}", f"{dashed:.6f}", f"{dotted:.6f}"]


def cmd_radius_table(cfg: dict) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if cfg["n"] is not None:
        n = cfg["n"]
        if n < 1:
            raise ConfigError("--n must be >= 1")
        writer.writerow(["k", "rate", "thick", "dashed", "dotted"])
        for k in range(n + 1):
            writer.writerow([str(k)] + _radius_row(k / n))
    else:
        writer.writerow(["rate", "thick", "dashed", "dotted"])
        for i in range(101):
            writer.writerow(_radius_row(i / 100))
    _write_text(cfg["out"], buf.getvalue())
    return EXIT_OK


_COMMANDS = {
    "setup": cmd_setup,
    "roundtrip": cmd_roundtrip,
    "simulate": cmd_simulate,
    "radius-table": cmd_radius_table,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        return _COMMANDS[cfg["command"]](cfg)
    except ConfigError as exc:
        print(f"symrank: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"symrank: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
