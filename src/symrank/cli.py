"""Command line front end.

Subcommands:
  setup         build a field tower + twist + orthonormal basis, save as JSON
  roundtrip     encode -> corrupt -> decode once, print a JSON report
  simulate      Monte-Carlo campaign, CSV of success rates per error rank
  radius-table  theoretical relative decoding radius curves per rate

Flags may come from --config (a JSON object with the same keys); explicitly
given flags win.  Exit codes: 0 success, 1 decode failure (including an
'incomplete' report: a walk of a localiser kernel of dimension >= 3, or on
a field without log tables, was cut at its cap), 2 ambiguity,
3 invalid input: a bad flag or config value, a field, code, rank or trial
count out of range, an unreadable setup file, or an output path that cannot
be opened (``simulate`` opens its outputs before the first trial).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time

from .bilinear import SymSetup
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
# the JSON type of each typed config key (no_timing is any truth value;
# g and f are a JSON string or the parsed list)
_CONFIG_TYPES = {**dict.fromkeys(("p", "e", "n", "k", "rank", "trials", "seed"), int),
                 **dict.fromkeys(("mode", "out", "setup_file", "instance_log"), str)}


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
            want = _CONFIG_TYPES.get(key)
            if want and value is not None and type(value) is not want:
                raise ConfigError(f"config {key} must be {want.__name__}, not {value!r}")
            if key == "mode" and value is not None and value not in MODES:
                raise ConfigError(f"config mode must be one of {MODES}, not {value!r}")
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


def _load(cfg: dict, with_setup: bool) -> tuple[ExtField, SymSetup | None]:
    """The field and, if asked for or given as a file, the setup.  Every
    construction error of user input surfaces here as a ConfigError."""
    try:
        if cfg["setup_file"]:
            with open(cfg["setup_file"]) as fh:
                setup = SymSetup.from_json(json.load(fh))
            return setup.field, setup
        field = _make_field(cfg)
        return field, SymSetup(field) if with_setup else None
    except KeyError as exc:
        raise ConfigError(f"setup file lacks key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


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
    _, setup = _load(cfg, with_setup=True)
    print(f"branch: {_branch(setup.field)} (u = {setup.u})", file=sys.stderr)
    _write_text(cfg["out"], json.dumps(setup.to_json(), sort_keys=True) + "\n")
    return EXIT_OK


def _max_rank(mode: str, n: int, k: int) -> int:
    """The decoding radius of a mode: its default rank and the top of its
    rank sweep."""
    if mode == "standard":
        return (n - k) // 2
    if mode == "sym-low":
        return n
    return n - k


def _status(rep) -> tuple[str, object]:
    return rep.status, rep.codeword


class _Bench:
    """One mode's code, picture map, error sampler and decoder, built once,
    run per trial."""

    def __init__(self, mode: str, field: ExtField, setup: SymSetup | None, k: int):
        self.field = field
        self.picture = lambda codeword: codeword
        if mode == "standard":
            self.code = GabCode(field, k, 0)
            radius = _max_rank(mode, field.n, k)
            self.sample_error = lambda rank, rng: random_error(field, rank, rng)
            self.decode = lambda received: _status(
                wb_decode(self.code, received, radius))
        elif mode == "sym-low":
            self.code = GabCode(field, k, 1)
            decoder = LowRateDecoder(matrix_code_of(self.code, setup))
            self.picture = lambda codeword: matrix_of(codeword, setup)
            self.sample_error = lambda rank, rng: random_symmetric_matrix(
                field.base, field.n, rank, rng)

            def decode(received):
                try:
                    return "ok", decoder.decode(received)[0]
                except InvalidInstanceError:
                    return "fail", None
            self.decode = decode
        else:
            decoder = HighRateDecoder(setup, k)
            self.code = decoder.code
            self.sample_error = lambda rank, rng: random_selfadjoint_qpoly(
                rank, setup, rng)
            self.decode = lambda received: _status(decoder.decode(received))

    def run(self, rank: int, rng: RngStream) -> dict:
        """One trial: returns outcome, decode nanoseconds, and the instance."""
        codeword = self.picture(random_codeword(self.code, rng))
        error = self.sample_error(rank, rng)
        received = codeword + error
        start = time.perf_counter_ns()
        status, decoded = self.decode(received)
        nanos = time.perf_counter_ns() - start
        if status == "ok" and decoded == codeword:
            outcome = "success"
        elif status == "ambiguous":
            outcome = "ambiguous"
        else:
            outcome = "failure"
        instance = {"codeword": codeword.to_json(), "error": error.to_json(),
                    "received": received.to_json()}
        return {"outcome": outcome, "nanos": nanos, "instance": instance,
                "decoded": None if decoded is None else decoded.to_json()}


def _make_bench(cfg: dict) -> _Bench:
    """Build the field or setup, check the run against its n, and only then
    the decoder, so that bad input never reaches a decoder or sampler."""
    mode = cfg["mode"]
    field, setup = _load(cfg, with_setup=mode != "standard")
    _validate(mode, field.n, cfg["k"], cfg["rank"], cfg["trials"])
    return _Bench(mode, field, setup, cfg["k"])


def _validate(mode: str, n: int, k: int, rank: int | None, trials: int):
    if not 0 <= k <= n:
        raise ConfigError(f"k = {k} out of range 0..{n}")
    if mode == "sym-low" and not 0 < 2 * k < n:
        raise ConfigError("sym-low needs 0 < k < n/2 "
                          "(rate below 1/2; use sym-high above it)")
    if mode == "sym-high" and not n < 2 * k < 2 * n:
        raise ConfigError("sym-high needs k > n/2 (use sym-low below that) and k < n")
    if rank is not None and not 0 <= rank <= n:
        raise ConfigError(f"rank = {rank} out of range 0..{n}")
    if trials < 0:
        raise ConfigError(f"trials = {trials} must be >= 0")


def cmd_roundtrip(cfg: dict) -> int:
    _require(cfg, "mode", "k")
    mode = cfg["mode"]
    bench = _make_bench(cfg)
    n = bench.field.n
    rank = cfg["rank"] if cfg["rank"] is not None else _max_rank(mode, n, cfg["k"])
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
    bench = _make_bench(cfg)
    n = bench.field.n
    ranks = [cfg["rank"]] if cfg["rank"] is not None else range(_max_rank(mode, n, k) + 1)
    trials = cfg["trials"]
    master = RngStream(cfg["seed"])
    with contextlib.ExitStack() as stack:
        # open both outputs before the first trial, so a bad path fails fast
        out = (stack.enter_context(open(cfg["out"], "w", newline=""))
               if cfg["out"] else sys.stdout)
        log = (stack.enter_context(open(cfg["instance_log"], "w", newline=""))
               if cfg["instance_log"] else None)
        rows = []
        for rank in sorted(ranks):
            counts = {"success": 0, "ambiguous": 0, "failure": 0}
            nanos: list[int] = []
            for trial in range(trials):
                stream = master.fork(rank * trials + trial)
                result = bench.run(rank, stream)
                counts[result["outcome"]] += 1
                nanos.append(result["nanos"])
                if log:
                    line = {"trial": trial, "seed": stream.seed,
                            "code": {"q": bench.field.q, "n": n, "k": k,
                                     "mode": mode, "rank": rank}}
                    line.update(result["instance"])
                    log.write(json.dumps(line, sort_keys=True) + "\n")
            mean = (0 if cfg["no_timing"] or not nanos
                    else sum(nanos) // (1000 * len(nanos)))
            rows.append([bench.field.q, n, k, mode, rank, trials, counts["success"],
                         counts["ambiguous"], counts["failure"], mean])
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["q", "n", "k", "mode", "rank", "trials", "successes",
                         "ambiguous", "failures", "mean_decode_micros"])
        writer.writerows(rows)
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
    except (ConfigError, OSError) as exc:
        print(f"symrank: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
