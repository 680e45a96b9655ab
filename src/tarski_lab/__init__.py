"""Laboratory for consequence (closure) operators over a sentence universe.

The public names are re-exported lazily (PEP 562): ``import tarski_lab``
loads no submodule, and the first read of a name imports the module that
defines it.  The six submodules listed below resolve as attributes too.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it; a submodule maps to itself.
_EXPORTS = {
    name: module
    for module, names in {
        "sets": "Mode ModeError Polarity SentenceSet Universe UniverseMismatchError make_universe",
        "operators": (
            "ClosureSystem Compose CPrime Cxy FromSystem FromTable Identity Meet NaiveJoin"
            " OperatorConstraintError OperatorExpr SExample Top WeakJoin evaluate to_closure_system"
        ),
        "algebra": (
            "ChainResult Comparison ComplementResult SublatticeReport descending_chain"
            " equivalent is_chain le relative_complement sublattice_report"
        ),
        "classify": (
            "AxiomReport CoverResult Verdict check_axioms default_universe dense_cover_check"
            " e0_family enumerate_operators is_atom lemma26_witness"
        ),
        "concurrence": "ConcurrenceResult is_concurrent monotone_union_check",
        "words": "",
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
