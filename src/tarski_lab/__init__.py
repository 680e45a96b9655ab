"""Laboratory for consequence (closure) operators over a sentence universe."""

from .sets import (
    Mode,
    ModeError,
    Polarity,
    SentenceSet,
    Universe,
    UniverseMismatchError,
    all_subsets,
    make_universe,
)
from .operators import (
    ClosureSystem,
    Compose,
    CPrime,
    Cxy,
    FromSystem,
    FromTable,
    Identity,
    Meet,
    NaiveJoin,
    OperatorConstraintError,
    OperatorExpr,
    SExample,
    Top,
    WeakJoin,
    evaluate,
    to_closure_system,
)
from .algebra import (
    ChainResult,
    Comparison,
    ComplementResult,
    SublatticeReport,
    UndecidableComparisonError,
    descending_chain,
    equivalent,
    is_chain,
    le,
    relative_complement,
    sublattice_report,
    weak_join,
)
from .classify import (
    AxiomReport,
    CoverResult,
    Verdict,
    check_axioms,
    default_universe,
    dense_cover_check,
    e0_family,
    enumerate_operators,
    is_atom,
    lemma26_witness,
)
from .concurrence import ConcurrenceResult, is_concurrent, monotone_union_check
from . import words

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
