"""Backward slicing of constraint logic programs.

Parse CLP(Q) programs, run them to proof trees, and compute provably
correct backward slices of constraint sets, derivation trees, and
programs, including dynamic slices sharpened by observed groundness.
"""

from .constraints import (
    ConstraintStore,
    NumericConstraint,
    Satisfiability,
    SolvedForm,
    TermEquation,
    class_slice,
    dep_classes,
    ground_vars,
    satisfiable,
    strip_rename_tags,
)
from .depgraph import (
    DepEdge,
    DepEdgeKind,
    DependencyGraph,
    Slice,
    SliceKind,
    graph_to_dot,
    program_dep_graph,
    program_slice,
    tree_dep_graph,
    tree_slice,
)
from .directional import (
    Annot,
    Annotation,
    IOKind,
    all_dual,
    annotate,
    directed_to_dot,
    directional_slice,
)
from .engine import (
    DerivationTree,
    GroundEvent,
    GroundnessLog,
    NoSolution,
    ProofTree,
    Skeleton,
    SkelNode,
    Solution,
    constraints_of,
    derive,
    origin_constraints,
    phi_inverse,
    positions_to_store,
)
from .linexpr import LinExpr, NonlinearityError, to_linear
from .oracle import OracleDomainError, SolutionSet, is_slice, minimal_slices, sol_finite
from .parser import ClpSyntaxError, parse_goal, parse_program
from .report import SliceReport, SliceStats, argument_positions, compute_stats
from .syntax import (
    AddressError,
    Atom,
    Clause,
    Compound,
    ConstraintExpr,
    GOAL_CLAUSE,
    NumberLiteral,
    Program,
    ProgramPosition,
    Term,
    TreePosition,
    Variable,
    position_of,
    rename_clause,
    render_clause,
    render_program,
)

__version__ = "0.1.0"


def corpus_path(name=""):
    """Path to a bundled corpus program (or the corpus directory)."""
    from importlib.resources import files
    from pathlib import Path

    base = Path(str(files("clpslice") / "corpus"))
    return base / name if name else base

