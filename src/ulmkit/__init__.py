"""Finite approximations to countable abelian p-groups.

Groups are presented by rooted trees (p*x = parent(x)), measured by Ulm
invariants, and compared by back-and-forth relations computed two ways: a
game search over explicit trees and a closed-form height/invariant test
that also covers infinitely generated groups described by invariant
profiles. On top of that sit two constructions: a stage-by-stage builder
that grows a subgroup of a direct sum of Pruefer groups against an oracle
table, and a run/letter system whose runs trace jumps between groups of
distinct isomorphism type.
"""

from .ordinal import (
    INFINITY,
    Ordinal,
    OMEGA,
    CofinalSequence,
    canonical_cofinal,
    hat_alpha,
    nat,
    parse_ordinal,
)
from .pgroup import GroupTree
from .ulm import (
    OMEGA_VALUE,
    Clause,
    Profile,
    invariants_of,
    make_G_hat,
    ulm_equal,
)
from .fragments import Fragment, ProfiledGroup, canonical_fragment
from .baf import (
    ExtensionError,
    check_extension,
    extend_tuple,
    find_embedding,
    leq_barker,
    leq_paper,
    leq_std_game,
    relation,
)
from .construct import PredicateTable, run_construction
from .alpha import (
    AlphaSystem,
    InstructionSource,
    accumulate_E,
    check_axioms,
    code_true_in,
    find_run,
    instruction_from_g,
    run_to_text,
    validate_run,
)
from .formats import (
    FormatError,
    export_dot,
    load_table,
    load_tree,
    parse_element,
    save_table,
    save_tree,
)

__all__ = [
    "INFINITY",
    "Ordinal",
    "OMEGA",
    "OMEGA_VALUE",
    "CofinalSequence",
    "canonical_cofinal",
    "hat_alpha",
    "nat",
    "parse_ordinal",
    "GroupTree",
    "Clause",
    "Profile",
    "invariants_of",
    "make_G_hat",
    "ulm_equal",
    "Fragment",
    "ProfiledGroup",
    "canonical_fragment",
    "ExtensionError",
    "check_extension",
    "extend_tuple",
    "find_embedding",
    "leq_barker",
    "leq_paper",
    "leq_std_game",
    "relation",
    "PredicateTable",
    "run_construction",
    "AlphaSystem",
    "InstructionSource",
    "accumulate_E",
    "check_axioms",
    "code_true_in",
    "find_run",
    "instruction_from_g",
    "run_to_text",
    "validate_run",
    "FormatError",
    "export_dot",
    "load_table",
    "load_tree",
    "parse_element",
    "save_table",
    "save_tree",
]
