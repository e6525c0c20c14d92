"""Command-line front end.

Exit codes: 0 on success, 1 when a verification command finds a tolerance
violation, 2 on usage or input errors; a command whose reader has gone
prints nothing more and keeps its exit code. Report-producing commands accept
``--json``; textual numeric output uses 12 significant digits. Seeded
commands default to seed 0 so bare invocations are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from collections.abc import Sequence

from .bases import _CATALOGS, BasisCatalog, catalog_by_name, ghz_catalog, verify_orthonormal
from .encoding import _ORACLE_SAMPLES, encode, reachability_matrix, reachability_oracle_matrix
from .ghzmeasure import DECODE_TABLE, GATE_SEQUENCE, disentangle
from .protocol import PROTOCOL_NAMES, ChannelConfig, _family, capacity_summary, run_trials
from .qstate import _MAX_STATE_CHARS, ATOL, _decimal, _real, _shown, dump_state, load_state

_INDEX_PREFIX = {"ghz": "psi", "phi": "phi", "bell": "bell"}


@dataclass(frozen=True)
class CommandResult:
    """What a command produced: an exit code and its textual output."""

    exit_code: int
    stdout: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting so dispatch() can return a CommandResult.
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

    # argparse's own echoes of a rejected token, shown through _shown; the
    # usage line above the error already lists a command's choices.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {_shown(value)}")

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(map(_shown, extras))}")
        return namespace


def _integer(name: str):
    """An argparse ``type=`` reader for an integer flag: ASCII digits through
    :func:`_decimal`, bounded only by its 20 digits, so the library checks
    the range and names it."""

    def read(text: str) -> int:
        try:
            return _decimal(text, name, 0, 10**20 - 1)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _float(text: str) -> float:
    """An argparse ``type=`` reader of real-number text through
    :func:`_real`, with a rejected value echoed through :func:`_shown`."""
    try:
        return _real(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {_shown(text)}") from None


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _text(value) -> str:
    """One JSON report value as text: floats via :func:`_fmt`, histograms
    as ``message:count`` pairs."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, list):
        return " ".join(f"{m}:{count}" for m, count in enumerate(value, start=1))
    return str(value)


def _report(args, payload, lines: list[str], exit_code: int = 0) -> CommandResult:
    """The one exit for report commands: ``payload`` as JSON under ``--json``,
    else the text ``lines``."""
    return CommandResult(exit_code, json.dumps(payload, indent=2) if args.json else "\n".join(lines))


def _parse_state_index(text: str, catalog: BasisCatalog) -> int:
    """Accept both bare numbers ('3') and prefixed names ('psi3')."""
    raw = str(text).strip().lower()
    head = raw.rstrip("0123456789")
    digits = raw[len(head):]
    expected = _INDEX_PREFIX[catalog.name]
    if head.isalpha() and head != expected:
        raise ValueError(f"index prefix {_shown(head)} does not name a {catalog.name} state; use e.g. {expected}3 or 3")
    if head not in ("", expected) or not digits:
        raise ValueError(f"malformed state index {_shown(text)}")
    return _decimal(digits, "index", 1, len(catalog))


def _cmd_bases_verify(args) -> CommandResult:
    catalog = catalog_by_name(args.basis)
    report = verify_orthonormal(catalog)
    ok = report.within()
    payload = {"basis": catalog.name, **asdict(report), "within_tolerance": ok}
    lines = [
        f"basis {catalog.name}: {len(catalog)} states on {catalog.n_qubits} qubits",
        f"max |<i|j>|, i != j:  {_fmt(report.max_off_diagonal)}",
        f"max |1 - <i|i>|:      {_fmt(report.max_diagonal_deviation)}",
        f"orthonormal within {ATOL:g}: {'yes' if ok else 'NO'}",
    ]
    return _report(args, payload, lines, 0 if ok else 1)


def _cmd_bases_dump(args) -> CommandResult:
    catalog = catalog_by_name(args.basis)
    index = _parse_state_index(args.index, catalog)
    return CommandResult(0, dump_state(catalog.state(index)).rstrip("\n"))


def _cmd_encode(args) -> CommandResult:
    message = _parse_state_index(args.message, ghz_catalog())
    return CommandResult(0, dump_state(encode(message)).rstrip("\n"))


def _labels(catalog: BasisCatalog) -> list[str]:
    prefix = _INDEX_PREFIX[catalog.name]
    return [f"{prefix}{i}" for i in range(1, len(catalog) + 1)]


def _cmd_reach(args) -> CommandResult:
    given = [flag for flag, value in (("--samples", args.samples), ("--seed", args.seed)) if value is not None]
    if given and not args.oracle:
        raise ValueError(f"{' and '.join(given)} can only be used with --oracle")
    catalog = catalog_by_name(args.basis)
    labels = _labels(catalog)
    width = max(len(lb) for lb in labels)

    def table(rows, cell) -> list[str]:
        return [f"{label:<{width}}  {' '.join(map(cell, row))}" for label, row in zip(labels, rows)]

    reachable = reachability_matrix(catalog, args.qubit).tolist()
    payload = {
        "basis": catalog.name,
        "qubit": args.qubit,
        "reachable": reachable,
    }
    lines = [
        f"single-qubit reachability (basis {catalog.name}, qubit {args.qubit}); "
        "rows: source, columns: target",
        *table(reachable, lambda v: "1" if v else "0"),
    ]
    if args.oracle:
        samples = _ORACLE_SAMPLES if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        fidelities = reachability_oracle_matrix(catalog, args.qubit, samples, seed).tolist()
        payload.update(samples=samples, seed=seed, max_fidelity=fidelities)
        lines += [f"best sampled fidelity ({samples} samples, seed {seed}):", *table(fidelities, _fmt)]
    return _report(args, payload, lines)


def _cmd_network_show(args) -> CommandResult:
    gates = [f"  {g} control={q[0]} target={q[1]}" if len(q) == 2 else f"  {g} qubit={q[0]}" for g, q in GATE_SEQUENCE]
    table = [f"  {label} -> {outcome}" for label, outcome in zip(_labels(ghz_catalog()), DECODE_TABLE)]
    return CommandResult(0, "\n".join(["gate sequence:", *gates, "truth table (ghz index -> measured bits):", *table]))


def _cmd_network_apply(args) -> CommandResult:
    with open(args.state_file) as file:
        text = file.read(_MAX_STATE_CHARS + 1)
    if len(text) > _MAX_STATE_CHARS:
        raise ValueError(f"state file is longer than {_MAX_STATE_CHARS} characters")
    state = load_state(text)
    return CommandResult(0, dump_state(disentangle(state)).rstrip("\n"))


def _cmd_roundtrip(args) -> CommandResult:
    channel = ChannelConfig(pauli_error_prob=args.noise, rng_seed=args.seed)
    fixed = None if args.message is None else _parse_state_index(args.message, _family(args.protocol).catalog)
    payload = run_trials(args.protocol, args.trials, channel, fixed_message=fixed).to_json_dict()
    return _report(args, payload, [f"{key:<28}{_text(value)}" for key, value in payload.items()])


def _cmd_capacity(args) -> CommandResult:
    rows = capacity_summary()
    lines = ["protocol  messages  qubits_transmitted  total_bits  bits_per_transmitted_qubit"] + [
        f"{r.protocol:<8}  {r.message_count:<8}  {r.qubits_transmitted:<18}  "
        f"{r.total_bits:<10.1f}  {r.bits_per_transmitted_qubit:.1f}"
        for r in rows
    ]
    return _report(args, [asdict(r) for r in rows], lines)


def _build_parser() -> _Parser:
    # Basis and protocol names are checked by catalog_by_name and _family
    # alone; the metavar shows them as argparse would show choices=.
    basis = {"required": True, "metavar": "{" + ",".join(_CATALOGS) + "}"}
    parser = _Parser(prog="ghzdense", description="Dense coding on GHZ triples: simulate, verify, analyze.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    bases = sub.add_parser("bases", help="inspect the built-in bases")
    bases_sub = bases.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    verify = bases_sub.add_parser("verify", help="orthonormality report")
    verify.add_argument("--basis", **basis)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_bases_verify)
    dump = bases_sub.add_parser("dump", help="print one basis state")
    dump.add_argument("--basis", **basis)
    dump.add_argument("--index", required=True, help="state index, e.g. 3 or psi3")
    dump.set_defaults(handler=_cmd_bases_dump)

    enc = sub.add_parser("encode", help="apply a message's encoding to the shared GHZ state")
    enc.add_argument("--message", required=True, help="message index 1..8 (psi3 also accepted)")
    enc.set_defaults(handler=_cmd_encode)

    reach = sub.add_parser("reach", help="single-qubit reachability matrix of a basis")
    reach.add_argument("--basis", **basis)
    reach.add_argument("--qubit", type=_integer("qubit"), default=1)
    reach.add_argument("--oracle", action="store_true", help="also print best sampled fidelities")
    reach.add_argument(
        "--samples",
        type=_integer("samples"),
        help=f"oracle sample count, at most 10^8 (default {_ORACLE_SAMPLES}); needs --oracle",
    )
    reach.add_argument("--seed", type=_integer("seed"), help="oracle seed (default 0); needs --oracle")
    reach.add_argument("--json", action="store_true")
    reach.set_defaults(handler=_cmd_reach)

    network = sub.add_parser("network", help="the receiver's disentangling network")
    network_sub = network.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    show = network_sub.add_parser("show", help="gate list and truth table")
    show.set_defaults(handler=_cmd_network_show)
    apply_cmd = network_sub.add_parser("apply", help="run the network on a state file")
    apply_cmd.add_argument("--state-file", required=True)
    apply_cmd.set_defaults(handler=_cmd_network_apply)

    rt = sub.add_parser("roundtrip", help="simulate full protocol round trips")
    rt.add_argument("--protocol", required=True, metavar="{" + ",".join(PROTOCOL_NAMES) + "}")
    rt.add_argument("--trials", type=_integer("trials"), default=1000)
    rt.add_argument("--seed", type=_integer("seed"), default=0)
    rt.add_argument("--noise", type=_float, default=0.0, help="per-transit-qubit Pauli error probability")
    rt.add_argument("--message", default=None, help="pin every trial to this message")
    rt.add_argument("--json", action="store_true")
    rt.set_defaults(handler=_cmd_roundtrip)

    cap = sub.add_parser("capacity", help="bits per transmitted qubit, both protocols")
    cap.add_argument("--json", action="store_true")
    cap.set_defaults(handler=_cmd_capacity)

    return parser


def dispatch(argv: Sequence[str]) -> CommandResult:
    """Parse and run one command line; never raises for user errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        return CommandResult(2, str(exc))
    except SystemExit as exc:  # argparse --help prints by itself
        return CommandResult(int(exc.code or 0), "")
    try:
        return args.handler(args)
    except ValueError as exc:
        return CommandResult(2, f"error: {exc}")
    except OSError as exc:  # str(exc) would echo the whole file name
        shown = str(exc) if exc.filename is None else f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        return CommandResult(2, f"error: {shown}")


def main(argv: Sequence[str] | None = None) -> None:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if result.exit_code == 2 else sys.stdout
    try:
        if result.stdout:
            print(result.stdout, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader has gone. Python flushes the stream again at exit, so
        # point it at devnull, as Python's SIGPIPE note does, and keep the
        # command's own exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    raise SystemExit(result.exit_code)
