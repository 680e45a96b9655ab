"""Command-line front end.

Exit codes: 0 for a true verdict (or plain success), 1 for a false verdict
(the report carries the witness), 2 for usage or spec errors.  All
commands accept --json for byte-stable machine-readable reports.

Every command is registered through ``command(parent, name, *params,
operands=False)``, which declares its options and arguments once (see
``option`` and ``argument``); ``ROOT.commands`` is the table of commands.
Its body computes and returns a ``Report``; the front end adds ``--json``
(and, with ``operands``, ``--spec``/``--universe``, handing the body the
parsed ``SpecContext`` as ``sctx``), times the body, renders the report,
turns a ``ValueError``/``KeyError`` of either step into a usage error,
prints the report, and exits 0 or 1 on its verdict.  A group registered
through ``group(parent, name, *params)`` (``words``) takes its own options
before its subcommand; what its body returns is passed on to the
subcommand's body.

The front end uses only the standard library and keeps click's conventions:
options may come before, between or after the arguments, ``--opt=value``
works, ``--`` ends the options, an option name is never abbreviated, there
is no ``-h``, and ``--help`` is rendered in click's layout, 80 columns wide.
A usage error prints the command's usage line, a ``Try ... --help`` hint and
``Error: <message>`` on stderr, with click's wording, and exits 2.

This module imports no other module of the package at its top: each body
imports what it uses on its first lines, so ``--help`` loads only this
module, and a command loads only the modules it runs.  The timing of a text
report therefore includes loading them.
"""

from __future__ import annotations

import os
import stat
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .parsing import SpecContext
    from .report import Report
    from .words import Alphabet, PartialSeq

WIDTH = 80
# What an option of each kind shows after its name in --help.
METAVARS = {"text": "TEXT", "int": "INTEGER", "file": "FILE", "input": "FILE"}


class UsageError(Exception):
    """Exit 2 with ``Error: <message>`` on stderr.

    ``usage`` is the text printed before that line: the usage line and the
    help hint of the command that was being run.  The dispatcher fills it in
    when it is None; the parser passes "" where click prints no usage (an
    option without its value, a flag given one).
    """

    def __init__(self, message: str, usage: str | None = None) -> None:
        super().__init__(message)
        self.usage = usage


class Param:
    """An option (``name`` starts with ``--``) or an argument of a command.

    ``kind`` is "flag", "text", "int", "file" (an existing file) or "input"
    (an existing file, or ``-`` for stdin); ``dest`` names the body's
    parameter, and ``many`` makes an argument take every remaining value.
    """

    __slots__ = ("name", "dest", "kind", "help", "required", "many")

    def __init__(self, name: str, dest: str, kind: str, help: str, required: bool, many: bool) -> None:
        self.name = name
        self.dest = dest
        self.kind = kind
        self.help = help
        self.required = required
        self.many = many

    @property
    def is_option(self) -> bool:
        return self.name.startswith("--")

    def metavar(self) -> str:
        """How a usage line shows an argument: CODE, [NAME], EXPRESSIONS..."""
        var = self.name if self.required else f"[{self.name}]"
        return f"{var}..." if self.many else var

    def hint(self) -> str:
        """How an error names the parameter: '--n', 'CODE', 'EXPRESSIONS...'."""
        return f"'{self.name if self.is_option else self.metavar()}'"


def option(name: str, dest: str, kind: str = "text", help: str = "", required: bool = False) -> Param:
    return Param(name, dest, kind, help, required, False)


def argument(dest: str, kind: str = "text", required: bool = True, many: bool = False) -> Param:
    return Param(dest.upper(), dest, kind, "", required, many)


HELP = option("--help", "help", "flag", "Show this message and exit.")
JSON = option("--json", "as_json", "flag", "Machine-readable report.")
OPERANDS = (
    option("--spec", "spec_path", "file", "Spec file with universe and named bindings."),
    option("--universe", "universe_spec", help="Inline universe: comma-separated symbols, or 'cofinite'."),
)


class Command:
    """A command, or a group when ``commands`` maps its subcommands' names to them."""

    __slots__ = ("name", "help", "params", "body", "commands", "operands")

    def __init__(self, name, help, params, body, commands=None, operands=False) -> None:
        self.name = name
        self.help = help
        self.params = params
        self.body = body
        self.commands = commands
        self.operands = operands


ROOT = Command(
    None,
    """Laboratory for consequence (closure) operators.

    Set literals: {a,c} over finite symbols, {1,5} or co{1,5} over the
    naturals, {} empty, L the full universe.  Operator grammar: I, U,
    cxy {X} {Y}, cprime {X} {Y}, s {M} b, meet(e,e), join(e,e),
    wjoin(e,e), comp(e,e), system[{..};{..}].
    """,
    (),
    None,
    {},
)


def command(parent: Command, name: str, *params: Param, operands: bool = False):
    """Register ``body`` as a command of ``parent`` that reports on stdout."""

    def register(body) -> Command:
        declared = (*(OPERANDS if operands else ()), JSON, *params)
        parent.commands[name] = Command(name, body.__doc__ or "", declared, body, operands=operands)
        return parent.commands[name]

    return register


def group(parent: Command, name: str, *params: Param):
    """Register ``body`` as a group of ``parent``; what it returns goes to each subcommand's body."""

    def register(body) -> Command:
        parent.commands[name] = Command(name, body.__doc__ or "", params, body, {})
        return parent.commands[name]

    return register


# -- the front end -------------------------------------------------------------


def run(argv: list[str] | None = None, prog_name: str | None = None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    ``prog_name`` heads the usage lines; by default it is the name the
    program was started under, ``python -m tarski_lab.cli`` for a module run.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(ROOT, prog_name or _program_name(), args, {})
    except UsageError as error:
        _echo(sys.stderr, f"{error.usage}Error: {error}\n")
        return 2
    except (EOFError, KeyboardInterrupt):
        _echo(sys.stderr, "\n")
        return 130
    except BrokenPipeError:
        # The reader is gone: send what is still buffered nowhere, so the
        # interpreter's exit does not fail on it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main() -> None:
    """Console-script entry point."""
    sys.exit(run())


def _program_name() -> str:
    """The script's file name, or ``python -m <module>`` for a module run."""
    path = sys.argv[0]
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(path)
    name = os.path.splitext(os.path.basename(path))[0]
    module = package if name == "__main__" else f"{package}.{name}"
    return f"python -m {module.lstrip('.')}"


def _echo(stream, text: str) -> None:
    stream.write(text)
    stream.flush()


def _dispatch(cmd: Command, path: str, args: list[str], passed: dict) -> int:
    """Parse ``args`` for ``cmd`` (named ``path`` in usage lines) and run it."""
    try:
        if cmd.commands is not None and not args:
            _echo(sys.stderr, _help(cmd, path))
            return 2
        parsed = _parse(cmd, args)
        if parsed is None:
            _echo(sys.stdout, _help(cmd, path))
            return 0
        values, rest = parsed
        if cmd.commands is None:
            return _invoke(cmd, {**passed, **values})
        if not rest:
            raise UsageError("Missing command.")
        sub = cmd.commands.get(rest[0])
        if sub is None:
            raise UsageError(f"No such command {rest[0]!r}.{_suggestion(rest[0], cmd.commands)}")
        if cmd.body is not None:
            try:
                passed = {**passed, **cmd.body(**values)}
            except (ValueError, KeyError) as error:
                raise _usage_error(error) from error
        return _dispatch(sub, f"{path} {sub.name}", rest[1:], passed)
    except UsageError as error:
        if error.usage is None:
            error.usage = f"{_usage(cmd, path)}\nTry '{path} --help' for help.\n\n"
        raise


def _parse(cmd: Command, args: list[str]) -> tuple[dict, list[str]] | None:
    """Read ``args`` against ``cmd``'s parameters; None if --help is among them.

    Returns the body's values and what is left over: the subcommand and its
    arguments for a group, which stops at its first non-option.  Values are
    checked in click's order: the options given, in the order they first
    appear, then the arguments, then the options not given.
    """
    options = {p.name: p for p in (*cmd.params, HELP) if p.is_option}
    given: dict = {}
    seen: list[Param] = []
    positional: list[str] = []
    i = 0
    while i < len(args):
        token = args[i]
        i += 1
        if token == "--":
            positional += args[i:]
            break
        if token[:1] != "-" or token == "-":
            if cmd.commands is not None:
                positional += args[i - 1 :]
                break
            positional.append(token)
            continue
        if token[:2] != "--":
            raise UsageError(f"No such option {token[:2]!r}.")
        name, has_value, value = token.partition("=")
        param = options.get(name)
        if param is None:
            raise UsageError(f"No such option {name!r}.{_suggestion(name, options)}")
        if param.kind == "flag":
            if has_value:
                raise UsageError(f"Option {name!r} does not take a value.", usage="")
            value = True
        elif not has_value:
            if i == len(args):
                raise UsageError(f"Option {name!r} requires an argument.", usage="")
            value = args[i]
            i += 1
        given[param.dest] = value
        if param not in seen:
            seen.append(param)
    if given.pop("help", False):
        return None

    arguments = [p for p in cmd.params if not p.is_option]
    for param in arguments:
        if param.many:
            given[param.dest], positional = tuple(positional), []
        elif positional:
            given[param.dest] = positional.pop(0)
    values = {}
    for param in seen + arguments + [p for p in cmd.params if p.is_option and p not in seen]:
        value = given.get(param.dest)
        if value is None or value == ():
            if param.required:
                kind = "option" if param.is_option else "argument"
                raise UsageError(f"Missing {kind} {param.hint()}.")
            if param.kind == "flag":
                value = False
        else:
            value = _convert(param, value)
        values[param.dest] = value
    if positional and cmd.commands is None:
        s = "s" if len(positional) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(positional)})")
    return values, positional


def _convert(param: Param, value: str):
    if param.kind == "int":
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"Invalid value for {param.hint()}: {value!r} is not a valid integer.") from None
    if param.kind == "file" or (param.kind == "input" and value != "-"):
        try:
            mode = os.stat(value).st_mode
        except OSError:
            problem = "does not exist"
        else:
            if stat.S_ISDIR(mode):
                problem = "is a directory"
            elif not os.access(value, os.R_OK):
                problem = "is not readable"
            else:
                return value
        shown = value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
        raise UsageError(f"Invalid value for {param.hint()}: File {shown!r} {problem}.")
    return value


def _suggestion(name: str, names) -> str:
    from difflib import get_close_matches

    matches = sorted(get_close_matches(name, names))
    listed = ", ".join(map(repr, matches))
    if len(matches) == 1:
        return f" Did you mean {listed}?"
    return f" (Did you mean one of: {listed}?)" if matches else ""


def _usage_error(error: ValueError | KeyError) -> UsageError:
    # str() of a KeyError is the repr of its message; show the message.
    message = error.args[0] if isinstance(error, KeyError) and error.args else error
    return UsageError(str(message))


def _invoke(cmd: Command, values: dict) -> int:
    started = time.perf_counter()
    as_json = values.pop("as_json")
    try:
        if cmd.operands:
            values["sctx"] = _context(values.pop("spec_path"), values.pop("universe_spec"))
        report = cmd.body(**values)
        report.timing_ms = (time.perf_counter() - started) * 1000.0
        text = report.to_json() if as_json else report.to_text()
    except (ValueError, KeyError) as error:
        raise _usage_error(error) from error
    _echo(sys.stdout, text)
    return 0 if report.verdict else 1


# -- help ----------------------------------------------------------------------


def _usage(cmd: Command, path: str) -> str:
    pieces = ["[OPTIONS]"] + [p.metavar() for p in cmd.params if not p.is_option]
    if cmd.commands is not None:
        pieces.append("COMMAND [ARGS]...")
    prefix = f"Usage: {path} "
    if WIDTH >= len(prefix) + 20:
        return _wrap(" ".join(pieces), WIDTH, prefix, " " * len(prefix))
    return prefix + "\n" + _wrap(" ".join(pieces), WIDTH, " " * 11, " " * 11)


def _help(cmd: Command, path: str) -> str:
    """The --help text of ``cmd``, as click lays it out."""
    text = [_usage(cmd, path)]
    if cmd.help:
        paragraphs = [" ".join(line.strip() for line in part.splitlines()) for part in cmd.help.strip().split("\n\n")]
        text += ["", "\n\n".join(_wrap(p, WIDTH, "  ", "  ") for p in paragraphs)]
    rows = []
    for param in (*cmd.params, HELP):
        if param.is_option:
            term = param.name if param.kind == "flag" else f"{param.name} {METAVARS[param.kind]}"
            rows.append((term, f"{param.help}  [required]" if param.required else param.help))
    text += ["", "Options:", _definitions(rows)]
    if cmd.commands:
        limit = WIDTH - 6 - max(map(len, cmd.commands))
        rows = [(name, _short_help(cmd.commands[name].help, limit)) for name in sorted(cmd.commands)]
        text += ["", "Commands:", _definitions(rows)]
    return "\n".join(text) + "\n"


def _definitions(rows: list[tuple[str, str]]) -> str:
    """Two columns, indented by 2: the terms, then their texts wrapped beside them."""
    column = min(max(len(term) for term, _ in rows), 30) + 2
    lines = []
    for term, text in rows:
        if not text:  # a command without a docstring, as under python -OO
            lines.append(f"  {term}")
            continue
        pad =" " * (column - len(term)) if len(term) <= column - 2 else "\n" + " " * (column + 2)
        wrapped = _wrap(text, max(WIDTH - column - 2, 10), "", "").split("\n")
        lines.append(f"  {term}{pad}" + ("\n" + " " * (column + 2)).join(wrapped))
    return "\n".join(lines)


def _short_help(help: str, limit: int) -> str:
    """The first sentence of ``help`` within ``limit`` columns, else its first words and "..."."""
    words = help.split("\n\n")[0].split()
    total = 0
    for i, word in enumerate(words):
        total += len(word) + (i > 0)
        if total > limit:
            break
        if word.endswith("."):
            return " ".join(words[: i + 1])
        if total == limit and i != len(words) - 1:
            break
    else:
        return " ".join(words)
    total += 3
    while i > 0:
        total -= len(words[i]) + 1
        if total <= limit:
            break
        i -= 1
    return " ".join(words[:i]) + "..."


def _wrap(text: str, width: int, first: str, rest: str) -> str:
    import textwrap

    wrapper = textwrap.TextWrapper(width, initial_indent=first, subsequent_indent=rest, replace_whitespace=False)
    return wrapper.fill(text)


# -- the commands --------------------------------------------------------------


def _context(spec_path: str | None, universe_spec: str | None) -> SpecContext:
    from .sets import Mode, make_universe
    from .parsing import SpecContext, parse_spec

    if spec_path is not None:
        with open(spec_path) as handle:
            return parse_spec(handle.read())
    if universe_spec is None:
        raise UsageError("provide --spec FILE or --universe SYMBOLS|cofinite")
    if universe_spec.strip() == "cofinite":
        return SpecContext(make_universe(Mode.COFINITE))
    symbols = [s.strip() for s in universe_spec.split(",") if s.strip()]
    return SpecContext(make_universe(Mode.FINITE, symbols))


@command(ROOT, "check", argument("expression"), operands=True)
def check(sctx, expression) -> Report:
    """Report the axiom verdicts of an operator expression."""
    from .classify import check_axioms
    from .parsing import parse_operator, render_operator
    from .report import Report, axiom_report_payload

    op = parse_operator(expression, sctx)
    report = check_axioms(op)
    return Report(
        command=f"check {expression}",
        verdict=report.is_consequence,
        data={"operator": render_operator(op), "axiom-report": axiom_report_payload(report)},
    )


@command(ROOT, "order", argument("left"), argument("right"), operands=True)
def order(sctx, left, right) -> Report:
    """Decide left <= right pointwise; a false verdict carries a witness."""
    from .operators import evaluate
    from .algebra import le
    from .parsing import parse_operator, render_operator
    from .report import Report

    a = parse_operator(left, sctx)
    b = parse_operator(right, sctx)
    result = le(a, b)
    data = {"left": render_operator(a), "right": render_operator(b)}
    if not result.holds and result.witness is not None:
        data["witness"] = result.witness.literal()
        data["left-value"] = evaluate(a, result.witness).literal()
        data["right-value"] = evaluate(b, result.witness).literal()
    return Report(command=f"order {left} {right}", verdict=result.holds, data=data)


def _combine(name, builder, sctx, at_set, left, right) -> Report:
    from .sets import Mode
    from .operators import evaluate, to_closure_system
    from .parsing import parse_operator, parse_set, render_operator
    from .report import Report

    combined = builder(parse_operator(left, sctx), parse_operator(right, sctx))
    data = {"operator": render_operator(combined)}
    if at_set is not None:
        probe = parse_set(at_set, sctx)
        data["at"] = probe.literal()
        data["value"] = evaluate(combined, probe).literal()
    elif sctx.universe.mode is Mode.FINITE:
        data["closed-sets"] = [s.literal() for s in to_closure_system(combined).closed]
    else:
        raise UsageError("--at SET is required on the infinite universe")
    return Report(command=f"{name} {left} {right}", verdict=True, data=data)


AT = option("--at", "at_set", help="Evaluate the result at this set literal.")


@command(ROOT, "meet", AT, argument("left"), argument("right"), operands=True)
def meet(sctx, at_set, left, right) -> Report:
    """Pointwise-intersection meet of two operators."""
    from .operators import Meet

    return _combine("meet", Meet, sctx, at_set, left, right)


@command(ROOT, "wjoin", AT, argument("left"), argument("right"), operands=True)
def wjoin(sctx, at_set, left, right) -> Report:
    """Least upper bound (common-closure join) of two operators."""
    from .operators import WeakJoin

    return _combine("wjoin", WeakJoin, sctx, at_set, left, right)


@command(
    ROOT,
    "complement",
    option("--include-top", "include_top", "flag", "Allow the top map as the complement target."),
    argument("lower"),
    argument("upper"),
    operands=True,
)
def complement(sctx, include_top, lower, upper) -> Report:
    """Relative complement of LOWER inside UPPER, with axiom verdicts."""
    from .algebra import relative_complement
    from .parsing import parse_operator, render_operator
    from .report import Report, axiom_report_payload

    c = parse_operator(lower, sctx)
    c1 = parse_operator(upper, sctx)
    result = relative_complement(c, c1, include_top=include_top)
    return Report(
        command=f"complement {lower} {upper}",
        verdict=result.report.all_pass and result.lattice_ok,
        data={
            "candidate": render_operator(result.candidate),
            "axiom-report": axiom_report_payload(result.report),
            "lattice-check": result.lattice_ok,
        },
    )


@command(ROOT, "chain", argument("expressions", many=True), operands=True)
def chain(sctx, expressions) -> Report:
    """Whether the given operators are pairwise comparable."""
    from .algebra import is_chain
    from .parsing import parse_operator, render_operator
    from .report import Report

    ops = [parse_operator(e, sctx) for e in expressions]
    result = is_chain(ops)
    data: dict = {"members": [render_operator(op) for op in ops]}
    if result.violating_pair is not None:
        data["incomparable-pair"] = [render_operator(op) for op in result.violating_pair]
    return Report(command="chain " + " ".join(expressions), verdict=result.holds, data=data)


@command(
    ROOT,
    "sublattice",
    option("--b", "b_literal", help="The fixed trigger set.", required=True),
    option("--all-generators", "all_generators", "flag", "Use every subset as a generator."),
    argument("generators", required=False, many=True),
    operands=True,
)
def sublattice(sctx, b_literal, all_generators, generators) -> Report:
    """Verify the lattice structure of the fixed-trigger family."""
    from .sets import Mode, ModeError
    from .algebra import check_sublattice_work, sublattice_report
    from .parsing import parse_set
    from .report import Report, sublattice_payload

    b = parse_set(b_literal, sctx)
    if all_generators:
        u = sctx.universe
        if u.mode is not Mode.FINITE:
            raise ModeError("the generated sublattice is analysed in finite mode only")
        check_sublattice_work(1 << u.size, u.size)
        gens = [u.from_mask(m) for m in range(1 << u.size)]
    else:
        gens = [parse_set(g, sctx) for g in generators]
    result = sublattice_report(b, gens)
    literals = [g.literal() for g in result.generators]
    return Report(
        command=f"sublattice --b {b_literal}",
        verdict=result.ok,
        data=sublattice_payload(b, literals, result),
    )


@command(ROOT, "descend", argument("count", "int"))
def descend(count) -> Report:
    """A strictly descending chain of COUNT operators on the naturals."""
    from .sets import Mode, make_universe
    from .algebra import descending_chain
    from .parsing import render_operator
    from .report import Report

    ops = descending_chain(make_universe(Mode.COFINITE), count)
    data = {"length": len(ops), "first-members": [render_operator(op) for op in ops[:8]]}
    return Report(command=f"descend {count}", verdict=True, data=data)


@command(
    ROOT,
    "enumerate",
    option("--n", "size", "int", "Universe size (1..4).", required=True),
    option("--include-top", "include_top", "flag", "Include the map sending everything to L."),
    option("--list-systems", "list_systems", "flag", "List every closed-set family."),
)
def enumerate_systems(size, include_top, list_systems) -> Report:
    """Count (and optionally list) all closure systems on a tiny universe."""
    from .classify import count_closure_systems, enumerate_operators
    from .report import Report

    data: dict = {"n": size, "include-top": include_top}
    if list_systems:
        systems = list(enumerate_operators(size, include_top=include_top))
        data["count"] = len(systems)
        data["systems"] = [
            "[" + ";".join(s.literal() for s in system.closed) + "]" for system in systems
        ]
    else:
        data["count"] = count_closure_systems(size, include_top)
    return Report(command=f"enumerate --n {size}", verdict=True, data=data)


@command(ROOT, "atoms", option("--n", "size", "int", "Universe size (2..4).", required=True))
def atoms(size) -> Report:
    """Check that the single-element candidates are atoms and densely cover."""
    from .classify import (
        ENUMERATION_LIMIT,
        default_universe,
        dense_cover_check,
        e0_family,
        enumerate_operators,
        is_atom,
    )
    from .parsing import render_operator
    from .report import Report

    if not 2 <= size <= ENUMERATION_LIMIT:
        raise ValueError(f"atoms are checked for 2 <= n <= {ENUMERATION_LIMIT}, got {size}")
    universe = default_universe(size)
    systems = list(enumerate_operators(size, include_top=True))
    members = e0_family(universe)
    verdicts = {render_operator(op): is_atom(op, systems) for op in members}
    cover = dense_cover_check(systems)
    return Report(
        command=f"atoms --n {size}",
        verdict=all(verdicts.values()) and cover.holds,
        data={"atoms": verdicts, "dense-cover": cover.holds, "operator-count": len(systems)},
    )


@command(ROOT, "lemma26", argument("expression"), operands=True)
def lemma26(sctx, expression) -> Report:
    """Least element whose co-singleton closes to the whole universe."""
    from .classify import lemma26_witness
    from .parsing import parse_operator, render_operator
    from .report import Report

    op = parse_operator(expression, sctx)
    witness = lemma26_witness(op)
    return Report(
        command=f"lemma26 {expression}",
        verdict=True,
        data={"operator": render_operator(op), "witness": sctx.universe.name_of(witness)},
    )


@command(ROOT, "theories", argument("expression"), operands=True)
def theories(sctx, expression) -> Report:
    """List the deductive systems (fixed points) of an operator."""
    from .operators import to_closure_system
    from .parsing import parse_operator, render_operator
    from .report import Report

    op = parse_operator(expression, sctx)
    system = to_closure_system(op)
    return Report(
        command=f"theories {expression}",
        verdict=True,
        data={
            "operator": render_operator(op),
            "count": len(system.closed),
            "closed-sets": [s.literal() for s in system.closed],
        },
    )


@group(
    ROOT,
    "words",
    option("--alphabet", "alphabet_text", help="Alphabet symbols in encoding order, e.g. 'abc'.", required=True),
)
def words(alphabet_text) -> dict:
    """Word encoding, decomposition, and equivalence utilities."""
    from .words import alphabet

    return {"alpha": alphabet(alphabet_text)}


def _parse_pieces(alpha: Alphabet, text: str) -> PartialSeq:
    from .words import seq_of_pieces

    pieces = [alpha.word(part) for part in text.split(",") if part]
    return seq_of_pieces(pieces)


@command(words, "encode", argument("text"))
def words_encode(alpha, text) -> Report:
    """Shortlex code of a word."""
    from .words import encode
    from .report import Report

    code = encode(alpha.word(text))
    return Report(command=f"words encode {text}", verdict=True, data={"word": text, "code": code})


@command(words, "decode", argument("code", "int"))
def words_decode(alpha, code) -> Report:
    """Word addressed by a shortlex code."""
    from .words import decode
    from .report import Report

    word = decode(alpha, code)
    return Report(command=f"words decode {code}", verdict=True, data={"code": code, "word": word.text()})


@command(words, "split", option("--k", "arity", "int", "Number of cut points.", required=True), argument("text"))
def words_split(alpha, arity, text) -> Report:
    """All arity-k decompositions of a word, in cut-mask order."""
    from .words import MAX_SPLIT_SYMBOLS, count_decompositions, decode, decompositions
    from .report import Report

    word = alpha.word(text)
    # Each split prints the word and k commas.  For g gaps C(g, k) = C(g, j) ≥ 2ʲ
    # with j = min(k, g − k), so a j of the bound's bit length is over the bound
    # without math.comb, which takes seconds for a large j.
    j = min(arity, word.size - 1 - arity)
    if j >= MAX_SPLIT_SYMBOLS.bit_length() or (
        count_decompositions(word, arity) * (word.size + arity) > MAX_SPLIT_SYMBOLS
    ):
        raise ValueError(
            f"the splits of a {word.size}-symbol word at --k {arity}"
            f" exceed the output bound of {MAX_SPLIT_SYMBOLS} symbols"
        )
    splits = [
        ",".join(decode(alpha, code).text() for code in reversed(seq.codes))
        for seq in decompositions(word, arity)
    ]
    return Report(
        command=f"words split {text} --k {arity}",
        verdict=True,
        data={"word": text, "k": arity, "count": len(splits), "splits": splits},
    )


@command(words, "classify", argument("text"))
def words_classify(alpha, text) -> Report:
    """Size, maximal split arity, and decomposition count of a word."""
    from .words import class_of, count_decompositions, encode, seq_of_word
    from .report import Report

    word = alpha.word(text)
    cls = class_of(seq_of_word(word))
    return Report(
        command=f"words classify {text}",
        verdict=True,
        data={
            "word": text,
            "size": cls.size,
            "max-arity": cls.size - 1,
            "decompositions": count_decompositions(word),
            "code": encode(word),
        },
    )


@command(words, "equiv", argument("first"), argument("second"))
def words_equiv(alpha, first, second) -> Report:
    """Whether two comma-separated piece sequences denote the same word."""
    from .words import equivalent_seqs, word_of_seq
    from .report import Report

    f = _parse_pieces(alpha, first)
    g = _parse_pieces(alpha, second)
    return Report(
        command=f"words equiv {first} {second}",
        verdict=equivalent_seqs(f, g),
        data={
            "first": word_of_seq(f).text(),
            "second": word_of_seq(g).text(),
        },
    )


def _edge_pairs(handle) -> list[tuple[str, str]]:
    pairs = []
    for number, line in enumerate(handle, 1):
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2:
            pairs.append((fields[0], fields[1]))
        elif fields:
            raise ValueError(f"line {number}: expected 'x y'")
    return pairs


@command(
    ROOT,
    "concurrent",
    option("--domain", "domain_text", help="Comma-separated domain; defaults to the left elements in file order."),
    argument("edges", "input"),
)
def concurrent(domain_text, edges) -> Report:
    """Concurrence of a relation read as an edge list ('x y' per line)."""
    from .concurrence import is_concurrent
    from .report import Report

    if edges == "-":
        pairs = _edge_pairs(sys.stdin)
    else:
        with open(edges) as handle:
            pairs = _edge_pairs(handle)
    if domain_text:
        domain = [part.strip() for part in domain_text.split(",") if part.strip()]
    else:
        domain = list(dict.fromkeys(x for x, _ in pairs))
    result = is_concurrent(pairs, domain)
    data: dict = {"domain": domain}
    if result.concurrent:
        data["bound"] = result.bound
    elif result.failing_subset is not None:
        data["failing-subset"] = list(result.failing_subset)
    return Report(command=f"concurrent {edges}", verdict=result.concurrent, data=data)


@command(
    ROOT,
    "demo",
    option("--list", "list_demos", "flag", "List the available demos."),
    argument("name", required=False),
)
def demo(list_demos, name) -> Report:
    """Run a named demonstration; expected failures count as demonstrated."""
    from .demos import DEMOS, run_demo
    from .report import Report

    if list_demos or name is None:
        return Report(
            command="demo --list",
            verdict=True,
            data={"demos": {key: summary for key, (summary, _) in sorted(DEMOS.items())}},
        )
    return run_demo(name)


if __name__ == "__main__":
    main()
