"""condalg: conditional-statement algebra.

Parsing and printing of ternary conditional statements, their
short-circuit evaluation trees, normal forms for five valuation
congruences (free, repetition-proof, contractive, memorizing, static),
decision procedures for those congruences, truth tables for the static
case, and desugaring of short-circuit ``!``/``&&``/``||`` with support
for effectful atoms.
"""

from .errors import (
    DEFAULT_NODE_BUDGET,
    AlphabetCoverageError,
    BudgetError,
    CondAlgError,
    DuplicateAtomError,
    InstanceBudgetError,
    NodeBudgetError,
    NotBasicFormError,
    OracleError,
    TermSyntaxError,
)
from .terms import (
    Atom,
    AtomSet,
    AtomTerm,
    Cond,
    FALSE,
    FalseConst,
    SIGMA_EMPTY,
    Sigma,
    TRUE,
    Term,
    TrueConst,
    alphabet,
    atom,
    depth,
    dual,
    enumerate_basic_forms,
    format_atom,
    is_basic_form,
    is_cr_basic_form,
    is_mem_basic_form,
    is_rp_basic_form,
    is_st_basic_form,
    parse_term,
    render_term,
    term_size,
)
from .evaltrees import (
    AtomOracle,
    EvalTree,
    Evaluation,
    LEAF_F,
    LEAF_T,
    Leaf,
    Node,
    evaluate_with_oracle,
    evaluations,
    render_tree,
    same_tree,
    se,
    tree_to_term,
)
from .normalform import (
    bf,
    cbf,
    cf,
    e_sigma,
    mbf,
    mf,
    rpbf,
    rpf,
    sbf,
    subst_tf,
)
from .treetransform import (
    cr,
    cse,
    mem,
    mse,
    rp,
    rpse,
    sse,
)
from .congruence import (
    AxiomInstanceReport,
    AxiomScheme,
    AXIOMS,
    CongruenceKind,
    CR,
    FREE,
    MEM,
    KIND_LEVEL,
    RP,
    SYSTEM_LEVEL,
    SYSTEMS,
    TruthTable,
    check_axioms,
    equivalent,
    normal_form,
    render_truth_table,
    separation_witnesses,
    static,
    transformed_tree,
    truth_table,
)
from .shortcircuit import (
    RegisterOracle,
    SC_FALSE,
    SC_TRUE,
    SclAnd,
    SclAtom,
    SclExpr,
    SclFalse,
    SclNot,
    SclOr,
    SclTrue,
    desugar,
    make_register_oracle,
    parse_register_state,
    parse_sc,
    render_sc,
)

__version__ = "0.1.0"
