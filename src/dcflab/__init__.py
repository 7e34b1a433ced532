"""dcflab: deterministic pushdown automata, oracle Mealy transducers, and
truth-table reductions between formal languages."""

from .analysis import (
    PeriodicityReport,
    Pump,
    down_states,
    eps_down_state,
    find_divergent_word,
    find_pump,
    periodicity,
    pop_summaries,
    signature,
    stair_factorize,
)
from .corpus import CorpusEntry, get_entry, names, oracle_of
from .dpda import (
    Configuration,
    Dpda,
    InvalidMachineError,
    Rule,
    StuckError,
    complete_dpda,
    config_member,
    dpda_to_document,
    load_dpda,
    member,
    validate_dpda,
)
from .mealy import (
    Dfa,
    LanguageOracle,
    OracleMealyMachine,
    TruthTable,
    complement_machine,
    compose,
    evaluate,
    identity_machine,
    lift_dfa,
    load_mealy,
    mealy_to_document,
    oracle_from_dpda,
    oracle_from_machine,
    refute_simplicity_LR,
    restrict_regular,
    transduce,
    validate_mealy,
)
from .witness import (
    AgreementReport,
    SearchBudgets,
    SearchExhaustedError,
    VerificationReport,
    WitnessTuple,
    build_lsharp_reducer,
    find_witness,
    reduce_lsharp,
    repair_nonempty,
    verify_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
