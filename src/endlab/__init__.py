"""Desk-scale laboratory for ends of groups and degree-one cohomology."""

from .serre_graphs import SerreGraph
from .group_backends import FiniteGroup, RewritingGroup
from .bass_serre import (
    Certificate,
    GraphOfFiniteGroups,
    HalfTreeSplitting,
    PiOne,
    PiOneElement,
    exactness_on_truncation,
    splitting_classify,
    tree_truncation,
)
from .cayley_abels import GeneratingPair, Subgroup, Truncation, ball_walk, build, coset_canonical, trivial_subgroup
from .ends_cuts import Cut, EndsEstimate, classify_ends, escaping_components, find_cut
from .ai_cohomology import (
    AIWitness,
    check_almost_invariance,
    cut_from_witness,
    dh1_nonvanishing_certificate,
    witness_from_splitting,
)
from .theorem_lab import (
    CatalogEntry,
    Scales,
    default_catalog,
    run_catalog,
    verify_equivalence,
    verify_resolution_evidence,
)
from .errors import BudgetExceeded

__all__ = [name for name in dir() if not name.startswith("_")]
