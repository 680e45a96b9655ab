"""Command-line front end.

Exit codes: 0 for a true verdict (or plain success), 1 for a false verdict
(the report carries the witness), 2 for usage or spec errors.  All
commands accept --json for byte-stable machine-readable reports.
"""

from __future__ import annotations

import time
from pathlib import Path

import click

from .sets import Mode, make_universe
from .operators import evaluate, to_closure_system
from .algebra import (
    descending_chain,
    is_chain,
    le,
    meet as meet_op,
    relative_complement,
    sublattice_report,
    weak_join,
)
from .classify import (
    check_axioms,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from .concurrence import is_concurrent
from .demos import DEMOS, run_demo
from .parsing import SpecContext, parse_operator, parse_set, parse_spec, render_operator
from .report import Report, axiom_report_payload
from . import words as words_mod


def _context(spec_path: str | None, universe_spec: str | None) -> SpecContext:
    if spec_path is not None:
        return parse_spec(Path(spec_path).read_text())
    if universe_spec is None:
        raise click.UsageError("provide --spec FILE or --universe SYMBOLS|cofinite")
    if universe_spec.strip() == "cofinite":
        return SpecContext(make_universe(Mode.COFINITE))
    symbols = [s.strip() for s in universe_spec.split(",") if s.strip()]
    return SpecContext(make_universe(Mode.FINITE, symbols))


def _emit(ctx: click.Context, report: Report, started: float, as_json: bool, code: int) -> None:
    report.timing_ms = (time.perf_counter() - started) * 1000.0
    click.echo(report.to_json() if as_json else report.to_text(), nl=False)
    ctx.exit(code)


def _usage(error: Exception) -> click.UsageError:
    return click.UsageError(str(error))


universe_options = [
    click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False), help="Spec file with universe and named bindings."),
    click.option("--universe", "universe_spec", help="Inline universe: comma-separated symbols, or 'cofinite'."),
]


def add_options(options):
    def wrap(f):
        for option in reversed(options):
            f = option(f)
        return f

    return wrap


json_option = click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")


@click.group()
def main() -> None:
    """Laboratory for consequence (closure) operators.

    Set literals: {a,c} over finite symbols, {1,5} or co{1,5} over the
    naturals, {} empty, L the full universe.  Operator grammar: I, U,
    cxy {X} {Y}, cprime {X} {Y}, s {M} b, meet(e,e), join(e,e),
    wjoin(e,e), comp(e,e), system[{..};{..}].  TARSKI_LAB_SEED pins the
    randomized-table sampling seed.
    """


@main.command()
@add_options(universe_options)
@json_option
@click.option("--cap", type=int, default=64, show_default=True, help="Bounded-search horizon for non-closed-form operators on the infinite universe.")
@click.argument("expression")
@click.pass_context
def check(ctx, spec_path, universe_spec, as_json, cap, expression) -> None:
    """Report the axiom verdicts of an operator expression."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        op = parse_operator(expression, sctx)
        report = check_axioms(op, cap=cap)
    except ValueError as error:
        raise _usage(error) from error
    out = Report(
        command=f"check {expression}",
        verdict=report.is_consequence,
        data={"operator": render_operator(op), "axiom-report": axiom_report_payload(report)},
    )
    _emit(ctx, out, started, as_json, 0 if report.is_consequence else 1)


@main.command()
@add_options(universe_options)
@json_option
@click.argument("left")
@click.argument("right")
@click.pass_context
def order(ctx, spec_path, universe_spec, as_json, left, right) -> None:
    """Decide left <= right pointwise; a false verdict carries a witness."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        a = parse_operator(left, sctx)
        b = parse_operator(right, sctx)
        result = le(a, b)
    except ValueError as error:
        raise _usage(error) from error
    data = {"left": render_operator(a), "right": render_operator(b)}
    if not result.holds and result.witness is not None:
        data["witness"] = result.witness.literal()
        data["left-value"] = evaluate(a, result.witness).literal()
        data["right-value"] = evaluate(b, result.witness).literal()
    out = Report(command=f"order {left} {right}", verdict=result.holds, data=data)
    _emit(ctx, out, started, as_json, 0 if result.holds else 1)


def _binary_operator_command(name: str, builder, doc: str):
    @main.command(name=name, help=doc)
    @add_options(universe_options)
    @json_option
    @click.option("--at", "at_set", help="Evaluate the result at this set literal.")
    @click.argument("left")
    @click.argument("right")
    @click.pass_context
    def command(ctx, spec_path, universe_spec, as_json, at_set, left, right) -> None:
        started = time.perf_counter()
        try:
            sctx = _context(spec_path, universe_spec)
            a = parse_operator(left, sctx)
            b = parse_operator(right, sctx)
            combined = builder(a, b)
            data = {"operator": render_operator(combined)}
            if at_set is not None:
                probe = parse_set(at_set, sctx)
                data["at"] = probe.literal()
                data["value"] = evaluate(combined, probe).literal()
            elif sctx.universe.mode is Mode.FINITE:
                system = to_closure_system(combined)
                data["closed-sets"] = [s.literal() for s in system.closed]
            else:
                raise click.UsageError("--at SET is required on the infinite universe")
        except click.UsageError:
            raise
        except ValueError as error:
            raise _usage(error) from error
        out = Report(command=f"{name} {left} {right}", verdict=True, data=data)
        _emit(ctx, out, started, as_json, 0)

    return command


_binary_operator_command("meet", meet_op, "Pointwise-intersection meet of two operators.")
_binary_operator_command("wjoin", weak_join, "Least upper bound (common-closure join) of two operators.")


@main.command()
@add_options(universe_options)
@json_option
@click.option("--include-top", is_flag=True, help="Allow the top map as the complement target.")
@click.argument("lower")
@click.argument("upper")
@click.pass_context
def complement(ctx, spec_path, universe_spec, as_json, include_top, lower, upper) -> None:
    """Relative complement of LOWER inside UPPER, with axiom verdicts."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        c = parse_operator(lower, sctx)
        c1 = parse_operator(upper, sctx)
        result = relative_complement(c, c1, include_top=include_top)
    except ValueError as error:
        raise _usage(error) from error
    ok = result.report.all_pass and result.lattice_ok
    out = Report(
        command=f"complement {lower} {upper}",
        verdict=ok,
        data={
            "candidate": render_operator(result.candidate),
            "axiom-report": axiom_report_payload(result.report),
            "lattice-check": result.lattice_ok,
        },
    )
    _emit(ctx, out, started, as_json, 0 if ok else 1)


@main.command()
@add_options(universe_options)
@json_option
@click.argument("expressions", nargs=-1, required=True)
@click.pass_context
def chain(ctx, spec_path, universe_spec, as_json, expressions) -> None:
    """Whether the given operators are pairwise comparable."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        ops = [parse_operator(e, sctx) for e in expressions]
        result = is_chain(ops)
    except ValueError as error:
        raise _usage(error) from error
    data: dict = {"members": [render_operator(op) for op in ops]}
    if result.violating_pair is not None:
        pair = result.violating_pair
        data["incomparable-pair"] = [render_operator(pair[0]), render_operator(pair[1])]
    out = Report(command="chain " + " ".join(expressions), verdict=result.holds, data=data)
    _emit(ctx, out, started, as_json, 0 if result.holds else 1)


@main.command()
@add_options(universe_options)
@json_option
@click.option("--b", "b_literal", required=True, help="The fixed trigger set.")
@click.option("--all-generators", is_flag=True, help="Use every subset as a generator.")
@click.argument("generators", nargs=-1)
@click.pass_context
def sublattice(ctx, spec_path, universe_spec, as_json, b_literal, all_generators, generators) -> None:
    """Verify the lattice structure of the fixed-trigger family."""
    from .sets import all_subsets

    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        b = parse_set(b_literal, sctx)
        if all_generators:
            gens = list(all_subsets(sctx.universe))
        else:
            gens = [parse_set(g, sctx) for g in generators]
        result = sublattice_report(b, gens)
    except ValueError as error:
        raise _usage(error) from error
    data = {
        "trigger": b.literal(),
        "generators": [g.literal() for g in result.generators],
        "inf-closed-form": result.inf_closed_form,
        "sup-closed-form": result.sup_closed_form,
        "joins-agree": result.joins_agree,
        "distributive": result.distributive,
    }
    if result.non_chain_witness is not None:
        a_set, d_set, probe = result.non_chain_witness
        data["non-chain-witness"] = {
            "first": a_set.literal(),
            "second": d_set.literal(),
            "probe": probe.literal(),
        }
    out = Report(command=f"sublattice --b {b_literal}", verdict=result.ok, data=data)
    _emit(ctx, out, started, as_json, 0 if result.ok else 1)


@main.command()
@json_option
@click.argument("count", type=int)
@click.pass_context
def descend(ctx, as_json, count) -> None:
    """A strictly descending chain of COUNT operators on the naturals."""
    started = time.perf_counter()
    try:
        universe = make_universe(Mode.COFINITE)
        ops = descending_chain(universe, count)
    except ValueError as error:
        raise _usage(error) from error
    shown = [render_operator(op) for op in ops[: min(len(ops), 8)]]
    out = Report(
        command=f"descend {count}",
        verdict=True,
        data={"length": len(ops), "first-members": shown},
    )
    _emit(ctx, out, started, as_json, 0)


@main.command()
@json_option
@click.option("--n", "size", type=int, required=True, help="Universe size (1..4).")
@click.option("--include-top", is_flag=True, help="Include the map sending everything to L.")
@click.option("--list-systems", is_flag=True, help="List every closed-set family.")
@click.pass_context
def enumerate(ctx, as_json, size, include_top, list_systems) -> None:
    """Count (and optionally list) all closure systems on a tiny universe."""
    started = time.perf_counter()
    try:
        systems = list(enumerate_operators(size, include_top=include_top))
    except ValueError as error:
        raise _usage(error) from error
    data: dict = {"n": size, "include-top": include_top, "count": len(systems)}
    if list_systems:
        data["systems"] = [
            "[" + ";".join(s.literal() for s in system.closed) + "]" for system in systems
        ]
    out = Report(command=f"enumerate --n {size}", verdict=True, data=data)
    _emit(ctx, out, started, as_json, 0)


@main.command()
@json_option
@click.option("--n", "size", type=int, required=True, help="Universe size (2..4).")
@click.pass_context
def atoms(ctx, as_json, size) -> None:
    """Check that the single-element candidates are atoms and densely cover."""
    started = time.perf_counter()
    try:
        universe = default_universe(size)
        systems = list(enumerate_operators(size, include_top=True))
        members = e0_family(universe)
        verdicts = {render_operator(op): is_atom(op, systems) for op in members}
        cover = dense_cover_check(systems)
    except ValueError as error:
        raise _usage(error) from error
    ok = all(verdicts.values()) and cover.holds
    out = Report(
        command=f"atoms --n {size}",
        verdict=ok,
        data={"atoms": verdicts, "dense-cover": cover.holds, "operator-count": len(systems)},
    )
    _emit(ctx, out, started, as_json, 0 if ok else 1)


@main.command()
@add_options(universe_options)
@json_option
@click.argument("expression")
@click.pass_context
def lemma26(ctx, spec_path, universe_spec, as_json, expression) -> None:
    """Least element whose co-singleton closes to the whole universe."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        op = parse_operator(expression, sctx)
        witness = lemma26_witness(op)
    except ValueError as error:
        raise _usage(error) from error
    out = Report(
        command=f"lemma26 {expression}",
        verdict=True,
        data={"operator": render_operator(op), "witness": sctx.universe.name_of(witness)},
    )
    _emit(ctx, out, started, as_json, 0)


@main.command()
@add_options(universe_options)
@json_option
@click.argument("expression")
@click.pass_context
def theories(ctx, spec_path, universe_spec, as_json, expression) -> None:
    """List the deductive systems (fixed points) of an operator."""
    started = time.perf_counter()
    try:
        sctx = _context(spec_path, universe_spec)
        op = parse_operator(expression, sctx)
        system = to_closure_system(op)
    except ValueError as error:
        raise _usage(error) from error
    out = Report(
        command=f"theories {expression}",
        verdict=True,
        data={
            "operator": render_operator(op),
            "count": len(system.closed),
            "closed-sets": [s.literal() for s in system.closed],
        },
    )
    _emit(ctx, out, started, as_json, 0)


@main.group()
@click.option("--alphabet", "alphabet_text", required=True, help="Alphabet symbols in encoding order, e.g. 'abc'.")
@click.pass_context
def words(ctx, alphabet_text) -> None:
    """Word encoding, decomposition, and equivalence utilities."""
    try:
        ctx.obj = words_mod.alphabet(alphabet_text)
    except ValueError as error:
        raise _usage(error) from error


def _parse_pieces(alpha: words_mod.Alphabet, text: str) -> words_mod.PartialSeq:
    pieces = [alpha.word(part) for part in text.split(",") if part]
    return words_mod.seq_of_pieces(pieces)


@words.command("encode")
@json_option
@click.argument("text")
@click.pass_context
def words_encode(ctx, as_json, text) -> None:
    """Shortlex code of a word."""
    started = time.perf_counter()
    try:
        code = words_mod.encode(ctx.obj.word(text))
    except (ValueError, KeyError) as error:
        raise _usage(error) from error
    out = Report(command=f"words encode {text}", verdict=True, data={"word": text, "code": code})
    _emit(ctx, out, started, as_json, 0)


@words.command("decode")
@json_option
@click.argument("code", type=int)
@click.pass_context
def words_decode(ctx, as_json, code) -> None:
    """Word addressed by a shortlex code."""
    started = time.perf_counter()
    try:
        word = words_mod.decode(ctx.obj, code)
    except ValueError as error:
        raise _usage(error) from error
    out = Report(command=f"words decode {code}", verdict=True, data={"code": code, "word": word.text()})
    _emit(ctx, out, started, as_json, 0)


@words.command("split")
@json_option
@click.option("--k", "arity", type=int, required=True, help="Number of cut points.")
@click.argument("text")
@click.pass_context
def words_split(ctx, as_json, arity, text) -> None:
    """All arity-k decompositions of a word, in cut-mask order."""
    started = time.perf_counter()
    try:
        word = ctx.obj.word(text)
        splits = [
            ",".join(p.text() for p in _pieces_of(seq))
            for seq in words_mod.decompositions(word, arity)
        ]
    except (ValueError, KeyError) as error:
        raise _usage(error) from error
    out = Report(
        command=f"words split {text} --k {arity}",
        verdict=True,
        data={"word": text, "k": arity, "count": len(splits), "splits": splits},
    )
    _emit(ctx, out, started, as_json, 0)


def _pieces_of(seq: words_mod.PartialSeq) -> list[words_mod.Word]:
    return [words_mod.decode(seq.alphabet, code) for code in reversed(seq.codes)]


@words.command("classify")
@json_option
@click.argument("text")
@click.pass_context
def words_classify(ctx, as_json, text) -> None:
    """Size, maximal split arity, and decomposition count of a word."""
    started = time.perf_counter()
    try:
        word = ctx.obj.word(text)
        cls = words_mod.class_of(words_mod.seq_of_word(word))
    except (ValueError, KeyError) as error:
        raise _usage(error) from error
    out = Report(
        command=f"words classify {text}",
        verdict=True,
        data={
            "word": text,
            "size": cls.size,
            "max-arity": cls.size - 1,
            "decompositions": words_mod.count_decompositions(word),
            "code": words_mod.encode(word),
        },
    )
    _emit(ctx, out, started, as_json, 0)


@words.command("equiv")
@json_option
@click.argument("first")
@click.argument("second")
@click.pass_context
def words_equiv(ctx, as_json, first, second) -> None:
    """Whether two comma-separated piece sequences denote the same word."""
    started = time.perf_counter()
    try:
        f = _parse_pieces(ctx.obj, first)
        g = _parse_pieces(ctx.obj, second)
        verdict = words_mod.equivalent_seqs(f, g)
    except (ValueError, KeyError) as error:
        raise _usage(error) from error
    out = Report(
        command=f"words equiv {first} {second}",
        verdict=verdict,
        data={
            "first": words_mod.word_of_seq(f).text(),
            "second": words_mod.word_of_seq(g).text(),
        },
    )
    _emit(ctx, out, started, as_json, 0 if verdict else 1)


@main.command()
@json_option
@click.option("--domain", "domain_text", help="Comma-separated domain; defaults to the left elements in file order.")
@click.argument("edges", type=click.Path(exists=True, dir_okay=False, allow_dash=True))
@click.pass_context
def concurrent(ctx, as_json, domain_text, edges) -> None:
    """Concurrence of a relation read as an edge list ('x y' per line)."""
    started = time.perf_counter()
    try:
        with click.open_file(edges) as handle:
            lines = [line.split("#", 1)[0].split() for line in handle]
        pairs = [(parts[0], parts[1]) for parts in lines if parts]
        if domain_text:
            domain = [part.strip() for part in domain_text.split(",") if part.strip()]
        else:
            domain = list(dict.fromkeys(x for x, _ in pairs))
        result = is_concurrent(pairs, domain)
    except (ValueError, IndexError) as error:
        raise _usage(error) from error
    data: dict = {"domain": domain}
    if result.concurrent:
        data["bound"] = result.bound
    elif result.failing_subset is not None:
        data["failing-subset"] = list(result.failing_subset)
    out = Report(command=f"concurrent {edges}", verdict=result.concurrent, data=data)
    _emit(ctx, out, started, as_json, 0 if result.concurrent else 1)


@main.command()
@json_option
@click.option("--list", "list_demos", is_flag=True, help="List the available demos.")
@click.argument("name", required=False)
@click.pass_context
def demo(ctx, as_json, list_demos, name) -> None:
    """Run a named demonstration; expected failures count as demonstrated."""
    started = time.perf_counter()
    if list_demos or name is None:
        out = Report(
            command="demo --list",
            verdict=True,
            data={"demos": {key: summary for key, (summary, _) in sorted(DEMOS.items())}},
        )
        _emit(ctx, out, started, as_json, 0)
        return
    try:
        report = run_demo(name)
    except (KeyError, ValueError) as error:
        raise _usage(error) from error
    _emit(ctx, report, started, as_json, 0 if report.verdict else 1)


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
