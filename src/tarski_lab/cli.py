"""Command-line front end.

Exit codes: 0 for a true verdict (or plain success), 1 for a false verdict
(the report carries the witness), 2 for usage or spec errors.  All
commands accept --json for byte-stable machine-readable reports.

Every command is registered through ``command(group, name, operands)``.
Its body parses its arguments, computes, and returns a ``Report``; the
decorator adds ``--json`` (and, with ``operands``, ``--spec``/``--universe``,
handing the body the parsed ``SpecContext`` as ``sctx``), times the body,
renders the report, turns a ``ValueError``/``KeyError`` of either step into
a usage error, prints the report, and exits 0 or 1 on its verdict.

This module imports no other module of the package at its top: each body
imports what it uses on its first lines, so ``--help`` loads only click and
this module, and a command loads only the modules it runs.  The timing of
a text report therefore includes loading them.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path
from typing import TYPE_CHECKING

import click

if TYPE_CHECKING:
    from .parsing import SpecContext
    from .report import Report
    from .words import Alphabet, PartialSeq


def _context(spec_path: str | None, universe_spec: str | None) -> SpecContext:
    from .sets import Mode, make_universe
    from .parsing import SpecContext, parse_spec

    if spec_path is not None:
        return parse_spec(Path(spec_path).read_text())
    if universe_spec is None:
        raise click.UsageError("provide --spec FILE or --universe SYMBOLS|cofinite")
    if universe_spec.strip() == "cofinite":
        return SpecContext(make_universe(Mode.COFINITE))
    symbols = [s.strip() for s in universe_spec.split(",") if s.strip()]
    return SpecContext(make_universe(Mode.FINITE, symbols))


def command(group: click.Group, name: str | None = None, operands: bool = False):
    """Register ``body`` as a command of ``group`` that reports on stdout."""

    def register(body):
        @functools.wraps(body)
        def run_body(as_json: bool, **params) -> None:
            started = time.perf_counter()
            try:
                if operands:
                    params["sctx"] = _context(params.pop("spec_path"), params.pop("universe_spec"))
                report = body(**params)
                report.timing_ms = (time.perf_counter() - started) * 1000.0
                text = report.to_json() if as_json else report.to_text()
            except (ValueError, KeyError) as error:
                # str() of a KeyError is the repr of its message; show the message.
                message = error.args[0] if isinstance(error, KeyError) and error.args else error
                raise click.UsageError(str(message)) from error
            click.echo(text, nl=False)
            click.get_current_context().exit(0 if report.verdict else 1)

        click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")(run_body)
        if operands:
            click.option("--universe", "universe_spec", help="Inline universe: comma-separated symbols, or 'cofinite'.")(run_body)
            click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), help="Spec file with universe and named bindings.")(run_body)
        return group.command(name=name)(run_body)

    return register


@click.group()
def main() -> None:
    """Laboratory for consequence (closure) operators.

    Set literals: {a,c} over finite symbols, {1,5} or co{1,5} over the
    naturals, {} empty, L the full universe.  Operator grammar: I, U,
    cxy {X} {Y}, cprime {X} {Y}, s {M} b, meet(e,e), join(e,e),
    wjoin(e,e), comp(e,e), system[{..};{..}].
    """


@command(main, operands=True)
@click.argument("expression")
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


@command(main, operands=True)
@click.argument("left")
@click.argument("right")
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
        raise click.UsageError("--at SET is required on the infinite universe")
    return Report(command=f"{name} {left} {right}", verdict=True, data=data)


at_option = click.option("--at", "at_set", help="Evaluate the result at this set literal.")


@command(main, operands=True)
@at_option
@click.argument("left")
@click.argument("right")
def meet(sctx, at_set, left, right) -> Report:
    """Pointwise-intersection meet of two operators."""
    from .operators import Meet

    return _combine("meet", Meet, sctx, at_set, left, right)


@command(main, operands=True)
@at_option
@click.argument("left")
@click.argument("right")
def wjoin(sctx, at_set, left, right) -> Report:
    """Least upper bound (common-closure join) of two operators."""
    from .operators import WeakJoin

    return _combine("wjoin", WeakJoin, sctx, at_set, left, right)


@command(main, operands=True)
@click.option("--include-top", is_flag=True, help="Allow the top map as the complement target.")
@click.argument("lower")
@click.argument("upper")
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


@command(main, operands=True)
@click.argument("expressions", nargs=-1, required=True)
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


@command(main, operands=True)
@click.option("--b", "b_literal", required=True, help="The fixed trigger set.")
@click.option("--all-generators", is_flag=True, help="Use every subset as a generator.")
@click.argument("generators", nargs=-1)
def sublattice(sctx, b_literal, all_generators, generators) -> Report:
    """Verify the lattice structure of the fixed-trigger family."""
    from .sets import Mode, ModeError
    from .operators import Identity, table
    from .algebra import sublattice_report
    from .parsing import parse_set
    from .report import Report, sublattice_payload

    b = parse_set(b_literal, sctx)
    if all_generators:
        u = sctx.universe
        if u.mode is not Mode.FINITE:
            raise ModeError("the generated sublattice is analysed in finite mode only")
        # The identity's table lists every mask, once table() has refused a
        # universe too large to sweep.
        gens = [u.from_mask(m) for m in table(Identity(u))]
    else:
        gens = [parse_set(g, sctx) for g in generators]
    result = sublattice_report(b, gens)
    literals = [g.literal() for g in result.generators]
    return Report(
        command=f"sublattice --b {b_literal}",
        verdict=result.ok,
        data=sublattice_payload(b, literals, result),
    )


@command(main)
@click.argument("count", type=int)
def descend(count) -> Report:
    """A strictly descending chain of COUNT operators on the naturals."""
    from .sets import Mode, make_universe
    from .algebra import descending_chain
    from .parsing import render_operator
    from .report import Report

    ops = descending_chain(make_universe(Mode.COFINITE), count)
    data = {"length": len(ops), "first-members": [render_operator(op) for op in ops[:8]]}
    return Report(command=f"descend {count}", verdict=True, data=data)


@command(main, name="enumerate")
@click.option("--n", "size", type=int, required=True, help="Universe size (1..4).")
@click.option("--include-top", is_flag=True, help="Include the map sending everything to L.")
@click.option("--list-systems", is_flag=True, help="List every closed-set family.")
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


@command(main)
@click.option("--n", "size", type=int, required=True, help="Universe size (2..4).")
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


@command(main, operands=True)
@click.argument("expression")
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


@command(main, operands=True)
@click.argument("expression")
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


@main.group()
@click.option("--alphabet", "alphabet_text", required=True, help="Alphabet symbols in encoding order, e.g. 'abc'.")
@click.pass_context
def words(ctx, alphabet_text) -> None:
    """Word encoding, decomposition, and equivalence utilities."""
    from .words import alphabet

    try:
        ctx.obj = alphabet(alphabet_text)
    except ValueError as error:
        raise click.UsageError(str(error)) from error


def _parse_pieces(alpha: Alphabet, text: str) -> PartialSeq:
    from .words import seq_of_pieces

    pieces = [alpha.word(part) for part in text.split(",") if part]
    return seq_of_pieces(pieces)


@command(words, name="encode")
@click.argument("text")
@click.pass_obj
def words_encode(alpha, text) -> Report:
    """Shortlex code of a word."""
    from .words import encode
    from .report import Report

    code = encode(alpha.word(text))
    return Report(command=f"words encode {text}", verdict=True, data={"word": text, "code": code})


@command(words, name="decode")
@click.argument("code", type=int)
@click.pass_obj
def words_decode(alpha, code) -> Report:
    """Word addressed by a shortlex code."""
    from .words import decode
    from .report import Report

    word = decode(alpha, code)
    return Report(command=f"words decode {code}", verdict=True, data={"code": code, "word": word.text()})


@command(words, name="split")
@click.option("--k", "arity", type=int, required=True, help="Number of cut points.")
@click.argument("text")
@click.pass_obj
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


@command(words, name="classify")
@click.argument("text")
@click.pass_obj
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


@command(words, name="equiv")
@click.argument("first")
@click.argument("second")
@click.pass_obj
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


@command(main)
@click.option("--domain", "domain_text", help="Comma-separated domain; defaults to the left elements in file order.")
@click.argument("edges", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
def concurrent(domain_text, edges) -> Report:
    """Concurrence of a relation read as an edge list ('x y' per line)."""
    from .concurrence import is_concurrent
    from .report import Report

    with click.open_file(edges) as handle:
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


@command(main)
@click.option("--list", "list_demos", is_flag=True, help="List the available demos.")
@click.argument("name", required=False)
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


def run(argv: list[str] | None = None) -> int:
    """Invoke the CLI programmatically; returns the exit code."""
    try:
        result = main.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    main()
