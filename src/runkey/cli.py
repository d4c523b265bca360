"""Command-line front end for reproducible secrecy experiments.

Every report-producing subcommand writes JSON or flat CSV with the fully
resolved configuration echoed into the header (CSV: ``# key value`` comment
lines, which are themselves valid config-file lines; JSON: a ``config``
object), so a report can always be regenerated from its own header.  The
header is the subparser's options in parser order (model options, then the
subcommand's own, then ``seed`` and ``format``), each under its flag name, so
it is a replayable config file.  The ``out`` option controls placement only
and is left out of the echo: runs that differ only in it produce
byte-identical reports.

``--config FILE`` reads options from a plain ``key value`` file (``#``
lines are comments) or replays a report: a CSV report (first line
``# subcommand <name>``) through its leading ``# key value`` block, a JSON
report (first character ``{``) through its ``config`` object.  A file naming
another subcommand is rejected.  A value replays as one ``--key=value`` token,
so it may start with ``-``.  A header carries no value with a line break
(``\\n``, ``\\r``) or whitespace at an end, so in any format a command given
one (all but ``encrypt`` and ``decrypt``) exits 2 naming it before it runs.

Exit codes: 0 success, 2 invalid configuration or input data, 3 a cap
exceeded (enumerated words, table entries, a kernel's work or sampled
symbols) or memory exhausted, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .cipher import additive_cipher
from .errors import CertificationError, ConvergenceError, EnumerationCapError, RunkeyError
from .inference import (
    _posterior_blocks,
    _write_posterior,
    posterior,  # noqa: F401 (the benchmark's tracer wraps this name here)
)
from .secrecy import (
    build_typical_set,
    certify_bounds,
    concentration_experiment,
    robustness_sweep,
    typical_set_growth,
)
from .sources import (
    _open_for,
    load_model,
    make_bernoulli,
    make_uniform,
    save_model,
    train_markov,
)
from .words import (
    bytes_to_symbols,
    symbols_to_bytes,
    text_to_word,
    word_to_text,
)

_CHUNK_BYTES = 1 << 16

# characters of an option value that an error message quotes; argparse's own
# message would quote a 5000-digit --m in full
_SHOWN_CHARS = 40


class ConfigError(RunkeyError, ValueError, argparse.ArgumentTypeError):
    """Invalid command line, config file, or input data.

    An ArgumentTypeError too, so argparse keeps its message from a ``type=``.
    """


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 (as in CPython 3.13), -inf and -nan are values, not options
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.I)

    def error(self, message):  # single-line, machine-parseable failures
        raise ConfigError(message)


def _shown(text: str) -> str:
    """``repr(text)`` for an error message; past ``_SHOWN_CHARS``, its head and length."""
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"{text[:_SHOWN_CHARS]!r}... ({len(text)} characters)"


def _number(text: str, kind):
    try:
        return kind(text)
    except ValueError:  # int() also refuses more than 4300 digits
        raise ConfigError(f"invalid {kind.__name__} value: {_shown(text)}") from None


def _int(text: str) -> int:
    return _number(text, int)


def _float(text: str) -> float:
    return _number(text, float)


def _values(text: str, kind) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} list {_shown(text)}") from exc
    if not values:
        raise ConfigError(f"empty {kind.__name__} list {_shown(text)}")
    return values


def _int_list(text: str) -> list[int]:
    return _values(text, int)


def _float_list(text: str) -> list[float]:
    return _values(text, float)


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        shown = value if len(text) <= _SHOWN_CHARS else _shown(text)
        raise ConfigError(f"must be a non-negative integer, got {shown}")
    return value


def _load_source(spec_text: str):
    """Resolve a model argument: inline ``uniform:``/``bernoulli:`` or a file path."""
    if spec_text.startswith("uniform:"):
        return make_uniform(_int(spec_text.split(":", 1)[1]))
    if spec_text.startswith("bernoulli:"):
        probs = _float_list(spec_text.split(":", 1)[1])
        return make_bernoulli(probs)
    return load_model(spec_text)


def _load_pair(args):
    """The plaintext and key models of ``args`` and the additive cipher over them."""
    xm = _load_source(args.x_model)
    ym = _load_source(args.y_model)
    return xm, ym, additive_cipher(xm.alphabet_size)


# -- configuration echo ---------------------------------------------------------


def _echo_value(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return ",".join(_echo_value(v) for v in value)
    return repr(value) if isinstance(value, float) else _fmt(value)


def _echo(args: argparse.Namespace) -> dict[str, str]:
    """The subcommand and its resolved options, in parser order, minus ``out``."""
    out = {"subcommand": args.subcommand}
    for flag, dest in args.echo_keys:
        value = _echo_value(getattr(args, dest))
        if value is not None and ("\n" in value or "\r" in value or value != value.strip()):
            raise ConfigError(f"--{flag} value {_shown(value)} cannot be echoed into a report "
                              "header: it holds a line break or has whitespace at an end")
        if value is not None:
            out[flag] = value
    return out


def _config_pairs(fh) -> list[tuple[str, str]]:
    """(key, value) pairs of a plain config file, a CSV report or a JSON report."""
    first = fh.readline()
    if first.startswith("{"):
        try:
            config = json.loads(first + fh.read())["config"]
            return [(str(key), str(value)) for key, value in config.items()]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(
                "JSON config file is not a report with a 'config' object"
            ) from exc
    report = first.split()[:2] == ["#", "subcommand"]
    pairs = []
    for raw in itertools.chain([first], fh):
        line = raw.strip()
        if report:
            if not line.startswith("#"):
                break  # end of the report header
            line = line[1:]
        elif not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        if parts:
            pairs.append((parts[0], parts[1] if len(parts) > 1 else ""))
    return pairs


def _read_config_file(path: str, subcommand: str, flags) -> list[str]:
    """Turn a config file's options into command-line tokens (flags win later).

    A key in ``flags`` (no value) is bare for ``true`` or none, gone for ``false``.
    """
    try:
        with _open_for(path, "r") as fh:
            pairs = _config_pairs(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    tokens: list[str] = []
    for key, value in pairs:
        if key == "subcommand":
            if value != subcommand:
                raise ConfigError(
                    f"config file {path!r} is for {value!r}, not {subcommand!r}"
                )
        elif key in flags and value.lower() in ("true", ""):
            tokens.append(f"--{key}")
        elif key not in flags or value.lower() != "false":
            tokens.append(f"--{key}={value}")
    return tokens


# -- report writers --------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"  # nan, inf and -inf print as such
    return str(value)


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, int, np.integer)):
        return _fmt(value)
    if isinstance(value, (float, np.floating)):
        text = _fmt(float(value))
        # JSON has no inf/nan literals
        return json.dumps(text) if text in ("nan", "inf", "-inf") else text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialise {type(value)!r}")


def _write_json(fh, config: dict[str, str], results) -> None:
    fh.write(_json_value({"config": config, "results": results}))
    fh.write("\n")


def _write_csv(fh, config: dict[str, str], columns: tuple[str, ...], rows) -> None:
    for key, value in config.items():
        fh.write(f"# {key} {value}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


@contextlib.contextmanager
def _open(path, mode: str):
    """``_open_for`` on a path option; '-' (or no ``--out``) is the standard stream.

    A file is written under a temporary name beside it and moved to its
    path only when the ``with`` block ends without an exception, so a
    command that fails part-way (a posterior whose mass check fails after
    its last row) leaves no file, and an earlier file at the path is kept.
    The standard stream, and a path that names a device or pipe, are
    written in place and cannot be retracted: what was written before a
    failure stays written.
    """
    if path in (None, "-"):
        stream = sys.stdin if "r" in mode else sys.stdout
        path = stream.buffer if "b" in mode else stream
    if "w" not in mode or not isinstance(path, str) or (
        os.path.exists(path) and not os.path.isfile(path)
    ):
        with _open_for(path, mode) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with _open_for(temporary, mode) as fh:
            yield fh
        os.replace(temporary, target)
    except OSError as exc:
        if exc.filename == temporary:
            exc.filename = path  # an error names the path asked for
        raise
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)


def _write_report(args, results, columns=(), rows=()) -> None:
    """Write ``results`` (JSON) or ``rows`` under ``columns`` (CSV) to ``--out``."""
    with _open(args.out, "w") as fh:
        if args.format == "json":
            _write_json(fh, _echo(args), results)
        else:
            _write_csv(fh, _echo(args), columns, rows)


def _series_rows(results_rows, first_column: str):
    """Flatten [{first: v, metric: value, ...}] into (first, metric, value) rows."""
    return [(row[first_column], key, value) for row in results_rows
            for key, value in row.items() if key != first_column]


# -- byte/symbol IO for encrypt/decrypt ------------------------------------------


def _cmd_cipher(args) -> int:
    n = 2 if args.bits else args.n
    spec = additive_cipher(n)
    apply_word = spec.encrypt if args.subcommand == "encrypt" else spec.decrypt
    if args.text:
        with _open(args.in_path, "r") as fh:
            data = text_to_word(fh.read(), n)
        with _open(args.key, "r") as fh:
            key = text_to_word(fh.read(), n)
        with _open(args.out, "w") as fh:
            fh.write(word_to_text(apply_word(data, key), n) + "\n")
        return 0
    with _open(args.in_path, "rb") as in_fh, _open(args.key, "rb") as key_fh, \
            _open(args.out, "wb") as out_fh:
        while True:
            # a buffered read returns the size asked for, or the rest at EOF
            block = in_fh.read(_CHUNK_BYTES)
            key_block = key_fh.read(len(block) or _CHUNK_BYTES)
            if not block and not key_block:
                break
            if len(block) != len(key_block):
                raise ConfigError("plaintext and key streams differ in length")
            x = bytes_to_symbols(block, n, bits=args.bits)
            y = bytes_to_symbols(key_block, n, bits=args.bits)
            out_fh.write(symbols_to_bytes(apply_word(x, y), n, bits=args.bits))
    return 0


# -- subcommands -----------------------------------------------------------------


def _cmd_train(args) -> int:
    # under --bits the alphabet is binary, and the echoed n says so
    n = args.n = 2 if args.bits else args.n
    with _open(args.corpus, "rb") as fh:
        raw = fh.read()
    stream = bytes_to_symbols(raw, n, bits=args.bits)
    model = train_markov(stream, n, args.order, alpha=args.alpha)
    header = [f"{k} {v}" for k, v in _echo(args).items()]
    with _open(args.out, "w") as fh:
        save_model(model, fh, header_lines=header)
    print(
        f"trained order-{args.order} model on {stream.size} symbols: "
        f"entropy rate {model.entropy_rate():.12g} bits/symbol -> {args.out}",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def _cmd_entropy(args) -> int:
    model = _load_source(args.x_model)
    rows = [
        ("", "entropy_rate", model.entropy_rate()),
        ("", "redundancy", model.redundancy()),
    ]
    results = {
        "n": model.alphabet_size,
        "order": model.order,
        "entropy_rate": model.entropy_rate(),
        "redundancy": model.redundancy(),
    }
    if args.m_list:
        blocks = []
        for m in args.m_list:
            value = model.block_entropy(m)
            blocks.append({"m": m, "h_m": value})
            rows.append((m, "block_entropy", value))
        results["block_entropies"] = blocks
    print(f"entropy rate: {model.entropy_rate():.12g} bits/symbol")
    _write_report(args, results, ("m", "metric", "value"), rows)
    return 0


def _cmd_posterior(args) -> int:
    xm, ym, spec = _load_pair(args)
    n = spec.alphabet_size
    z = text_to_word(args.z, n)
    t = z.size
    # rows stream block by block, never the whole table
    log_marginal, blocks = _posterior_blocks(xm, ym, spec, z)
    print(f"log2 P(z) = {log_marginal:.12g} over {n**t} plaintexts")
    with _open(args.out, "w") as fh:
        if args.format == "csv":
            for key, value in _echo(args).items():
                fh.write(f"# {key} {value}\n")
            _write_posterior(fh, n, t, blocks)
            return 0
        results = {"t": t, "log2_marginal": log_marginal, "rows": None}
        report = _json_value({"config": _echo(args), "results": results})
        if n**t > args.max_rows:
            for _ in blocks:  # all drawn, so the mass is checked in any case
                pass
            fh.write(report + "\n")
        else:  # the report with its rows written in place of null
            fh.write(report.removesuffix("null}}"))
            _write_posterior(fh, n, t, blocks, json=True)
            fh.write("}}\n")
    return 0


def _cmd_psi(args) -> int:
    xm, ym, spec = _load_pair(args)
    if args.z is not None:
        z = text_to_word(args.z, spec.alphabet_size)
        built = build_typical_set(xm, ym, spec, z, args.eps, args.h_ref, bracket_order=args.m)
        results = built.as_dict()
        rows = [(built.length, k, v) for k, v in results.items() if k != "t"]
        print(
            f"typical set at t={built.length}: {built.member_count} members, "
            f"mass {built.mass:.6g}, growth {built.growth:.6g}"
        )
    else:
        if args.seed is None:
            raise ConfigError("sampling ciphertexts for --t needs --seed")
        points = typical_set_growth(
            xm, ym, spec, args.t_list, args.eps, args.seed,
            h_ref=args.h_ref, bracket_order=args.m,
        )
        results = {"series": [p.as_dict() for p in points]}
        rows = _series_rows(results["series"], "t")
        print("growth series:", ", ".join(f"t={p.t}: {p.growth:.6g}" for p in points))
    _write_report(args, results, ("t", "metric", "value"), rows)
    return 0


def _cmd_smb(args) -> int:
    xm, ym, spec = _load_pair(args)
    report = concentration_experiment(
        xm, ym, spec, args.t_list, args.samples, args.eps, args.delta,
        args.seed, h_ref=args.h_ref, bracket_order=args.m,
    )
    results = report.as_dict()
    rows = _series_rows(results["rows"], "t")
    rows.append(("", "h_ref", report.h_ref))
    rows.append(("", "onset_length",
                 report.onset_length if report.onset_length is not None else "none"))
    print(
        "band fractions:",
        ", ".join(
            f"t={t}: {f:.4f}" for t, f in zip(report.lengths, report.band_fractions)
        ),
    )
    _write_report(args, results, ("t", "metric", "value"), rows)
    return 0


def _cmd_bounds(args) -> int:
    xm, ym, spec = _load_pair(args)
    report = certify_bounds(xm, ym, spec, args.m)
    results = report.as_dict()
    rows = [(args.m, key, value) for key, value in results.items()]
    print(
        f"h(X|Z) in [{report.bracket.lower:.12g}, {report.bracket.upper:.12g}], "
        f"corollary bound {report.bound_corollary:.12g}"
    )
    _write_report(args, results, ("m", "metric", "value"), rows)
    return 0


def _cmd_sweep(args) -> int:
    xm = _load_source(args.x_model)
    spec = additive_cipher(xm.alphabet_size)
    reports = robustness_sweep(
        xm, spec, args.tau_list, args.m,
        t_list=args.t_list, epsilon=args.eps, seed=args.seed,
    )
    results = [r.as_dict() for r in reports]
    rows = []
    for entry in results:
        tau = entry["tau"]
        rows += [(tau, key, value) for key, value in entry.items()
                 if key not in ("tau", "growth_series")]
        for point in entry.get("growth_series", ()):
            rows += [(tau, f"growth_t{point['t']}", point["growth"]),
                     (tau, f"mass_t{point['t']}", point["mass"])]
    print(
        "h(X|Z) lower bounds:",
        ", ".join(f"tau={r.tau:g}: {r.bracket.lower:.12g}" for r in reports),
    )
    _write_report(args, results, ("tau", "metric", "value"), rows)
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> _Parser:
    """The ``runkey`` parser; each subparser is its subcommand's whole description.

    A subparser names its handler (``run``), and its options, in the order
    added, are the report's echoed configuration (``echo_keys``), so model
    options come first and ``seed``, ``out`` and ``format`` last; ``flags``
    are the keys of the options that take no value.
    """
    parser = _Parser(prog="runkey", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_models(p, *, needs_y=True):
        p.add_argument("--x-model", required=True,
                       help="model file, or uniform:N / bernoulli:p0,p1,...")
        if needs_y:
            p.add_argument("--y-model", required=True)

    def add_report(p, *, seed=False, seed_required=False):
        if seed:
            p.add_argument("--seed", type=_nonnegative_int, required=seed_required)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("train", help="fit a Markov model to a corpus")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--corpus", required=True, help="byte stream file, or - for stdin")
    p.add_argument("--bits", action="store_true",
                   help="expand bytes to bits, most significant first")
    p.add_argument("--n", type=_int, default=256)
    p.add_argument("--order", type=_int, default=1)
    p.add_argument("--alpha", type=_float, default=0.5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("entropy", help="entropy rate and block entropies")
    p.set_defaults(run=_cmd_entropy)
    add_models(p, needs_y=False)
    p.add_argument("--m", dest="m_list", type=_int_list, default=None)
    add_report(p)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} with a running key")
        p.set_defaults(run=_cmd_cipher)
        p.add_argument("--in", dest="in_path", required=True)
        p.add_argument("--key", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--n", type=_int, default=256)
        p.add_argument("--bits", action="store_true")
        p.add_argument("--text", action="store_true",
                       help="read symbols as base-n text instead of raw bytes")

    p = sub.add_parser("posterior", help="exact posterior table for one ciphertext")
    p.set_defaults(run=_cmd_posterior)
    add_models(p)
    p.add_argument("--z", required=True, help="ciphertext as base-n text")
    p.add_argument("--max-rows", type=_nonnegative_int, default=4096,
                   help="largest table included in JSON output")
    add_report(p)

    p = sub.add_parser(
        "psi", help="typical deciphering set / growth series",
        description="Typical deciphering set of one ciphertext (--z), or its growth "
                    "series over sampled ciphertexts (--t).  The set is built by meet "
                    "in the middle from two halves of at most 2**24 words or cells "
                    "each, so a binary pair reaches length 48 - K, K the larger model "
                    "order.")
    p.set_defaults(run=_cmd_psi)
    add_models(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--z", help="one ciphertext as base-n text")
    target.add_argument("--t", dest="t_list", type=_int_list,
                        help="lengths of sampled ciphertexts (needs --seed)")
    p.add_argument("--eps", type=_float, required=True,
                   help="set width: a member's per-letter surprisal W has "
                        "|W - h_ref| < eps/2")
    p.add_argument("--m", type=_nonnegative_int, default=8, help="bracket order for h_ref")
    p.add_argument("--h-ref", type=_float, default=None)
    add_report(p, seed=True)

    p = sub.add_parser("smb", help="posterior surprisal concentration experiment")
    p.set_defaults(run=_cmd_smb)
    add_models(p)
    p.add_argument("--t", dest="t_list", type=_int_list, required=True)
    p.add_argument("--samples", type=_int, required=True)
    p.add_argument("--eps", type=_float, required=True,
                   help="band half-width: a sample counts when its per-letter "
                        "surprisal W has |W - h_ref| < eps")
    p.add_argument("--delta", type=_float, required=True)
    p.add_argument("--m", type=_nonnegative_int, default=10,
                   help="bracket order for h_ref when --h-ref is not given")
    p.add_argument("--h-ref", type=_float, default=None)
    add_report(p, seed=True, seed_required=True)

    p = sub.add_parser("bounds", help="certified equivocation bounds")
    p.set_defaults(run=_cmd_bounds)
    add_models(p)
    p.add_argument("--m", type=_nonnegative_int, required=True,
                   help="bracket order: H(Z_m+1 | Z^m, S_1) <= h(Z) <= "
                        "H(Z_m+1 | Z^m)")
    add_report(p)

    p = sub.add_parser("sweep", help="key-bias robustness sweep")
    p.set_defaults(run=_cmd_sweep)
    add_models(p, needs_y=False)
    p.add_argument("--tau", dest="tau_list", type=_float_list, required=True)
    p.add_argument("--m", type=_nonnegative_int, required=True)
    p.add_argument("--t", dest="t_list", type=_int_list, default=None)
    p.add_argument("--eps", type=_float, default=0.05)
    add_report(p, seed=True)

    for p in sub.choices.values():
        p.allow_abbrev = False  # read when parsing: "--m" is no "--max-rows"
        p.set_defaults(echo_keys=[
            (action.option_strings[0][2:], action.dest)
            for action in p._actions if action.dest not in ("help", "out")
        ])
    parser.flags = {action.option_strings[0][2:] for p in sub.choices.values()
                    for action in p._actions if action.nargs == 0}
    return parser


def _splice_config(argv: list[str], flags) -> list[str]:
    """``argv`` with each ``--config`` file's options right after the subcommand.

    The subcommand is ``argv[0]``; the rest (a missing or misplaced
    subcommand too) is the full parser's to judge, and later flags win.  No
    parser takes abbreviations: ``--conf`` would read a file, and ``--v`` in
    place of the subcommand would print the version.
    """
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config", action="append", default=[])
    known, rest = pre.parse_known_args(argv[1:])
    tokens = [token for path in known.config for token in _read_config_file(path, argv[0], flags)]
    return argv[:1] + tokens + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(_splice_config(argv, parser.flags))
        if args.run is not _cmd_cipher:  # encrypt and decrypt echo nothing
            _echo(args)  # a value no header can carry stops the run before it starts
        return args.run(args)
    except (EnumerationCapError, MemoryError) as exc:
        return _fail("cap", exc, 3)
    except (ConvergenceError, CertificationError) as exc:
        return _fail("numeric", exc, 4)
    except (ValueError, OSError) as exc:  # ConfigError and the input errors subclass ValueError
        return _fail("config", exc, 2)


def _fail(category: str, exc: Exception, code: int) -> int:
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
