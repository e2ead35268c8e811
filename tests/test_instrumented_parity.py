"""The instrumented-run parity cases, under the ids they have always had.

These cases were written against the closure engine's instrumented fast
paths.  That engine is gone; every behaviour they pinned (analyzer state
at stride 1 and 2, first-touch profile order, early-exit and
budget-abort partial data, witness dedupe-before-cap, stale /
multiple-observer fallback) is now checked tree-vs-transpiled in
:mod:`test_transpiled_parity`, which is where the code lives.  This
module only re-exports those cases so their ids stay in the suite; the
expensive oracle legs are memoized there, so the second collection
costs assertions, not runs.
"""

from test_transpiled_parity import (  # noqa: F401
    test_dyndep_parity_full_corpus,
    test_dyndep_state_matches_on_early_loop_exit,
    test_profile_partial_data_survives_ops_budget_abort,
    test_profile_totals_match_on_early_loop_exit,
    test_profiler_parity_full_corpus,
    test_stale_analyzer_falls_back_to_generic_path,
    test_witness_pairs_identical_across_engines,
    test_witnesses_dedupe_before_cap)
from test_transpiled_parity import \
    test_extra_observers_fall_back_and_agree as \
    test_extra_observer_falls_back_to_generic_path  # noqa: F401
