"""Exact enumeration, grammars, and generating functions for restricted Dyck paths."""

from .intsets import (IntSet, Progression, Range, RestrictionQuad, Single,
                      parse_set)
from .paths import DyckPath, satisfies
from .oracle import ResourceLimit, count_brute, count_dp, enumerate_paths
from .series import Poly, SeriesSystem, TruncatedSeries, solve
from .grammar import (Grammar, GrammaticalEquation, check_equation,
                      check_unambiguous, lower, words)
from .sequences import SeqId, identify, reference
from .families import FAMILY_IDS, BadParams, FamilyInstance, build
from .bijection import PARITY_QUAD, path_to_walk, walk_to_path
from .verify import FamilyReport, count_comparison, verify_family

__version__ = "0.1.0"
