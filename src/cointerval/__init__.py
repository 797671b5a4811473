"""Minimal cellular resolutions of cointerval edge ideals, exactly.

Build the labeled block complex of a cointerval d-uniform hypergraph,
verify it resolves the edge ideal over any coefficient field, read off
graded Betti numbers three independent ways, realize the complex inside
a staircase subdivision of a dilated simplex, and glue resolutions from
cointerval covers when the input itself is not cointerval.  All
arithmetic is exact (prime fields and rationals); nothing is floated.
"""

from .complexes import (
    LabeledComplex,
    build_complex,
    contractibility_certificate,
    fold,
)
from .covers import (
    Cover,
    glued_resolution,
    join,
    linear_width,
    part_complex,
)
from .dumpio import (
    parse_complex_dump,
    read_complex_dump,
    write_complex_dump,
)
from .errors import BudgetError, ParseError, PreconditionError
from .homology import (
    DEFAULT_FIELDS,
    GF2,
    GF3,
    GF32003,
    QQ,
    Field,
    homology_ranks,
)
from .hypergraph import (
    Hypergraph,
    find_cointerval_labeling,
    find_strongly_stable_labeling,
    format_hypergraph,
    interval_representation,
    parse_hypergraph,
    read_hypergraph,
)
from .resolution import (
    BettiTable,
    VerificationReport,
    betti_from_cells,
    betti_from_downset_homology,
    betti_hochster,
    cube_betti,
    independence_complex,
    taylor_complex,
    verify_minimal,
    verify_resolution,
)
from .staircase import (
    Geometry,
    cell_to_blocks,
    depolarize,
    enumerate_staircase,
    export_geometry,
    polarize,
    polarize_blocks,
    restrict_to_graph,
    staircase_volume,
    write_geometry,
)

from .casestudy import (
    ClassRow,
    LabelingSearchReport,
    burnside_count,
    classification_table,
    classify_all,
    counterexample_search,
    enumerate_classes,
    net_graph,
    ss_width_gap_search,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BudgetError",
    "ClassRow",
    "Cover",
    "DEFAULT_FIELDS",
    "Field",
    "GF2",
    "GF3",
    "GF32003",
    "Geometry",
    "Hypergraph",
    "LabeledComplex",
    "LabelingSearchReport",
    "ParseError",
    "PreconditionError",
    "QQ",
    "VerificationReport",
    "betti_from_cells",
    "betti_from_downset_homology",
    "betti_hochster",
    "build_complex",
    "burnside_count",
    "cell_to_blocks",
    "classification_table",
    "classify_all",
    "contractibility_certificate",
    "counterexample_search",
    "cube_betti",
    "depolarize",
    "enumerate_classes",
    "enumerate_staircase",
    "export_geometry",
    "find_cointerval_labeling",
    "find_strongly_stable_labeling",
    "fold",
    "format_hypergraph",
    "glued_resolution",
    "homology_ranks",
    "independence_complex",
    "interval_representation",
    "join",
    "linear_width",
    "net_graph",
    "parse_complex_dump",
    "parse_hypergraph",
    "part_complex",
    "polarize",
    "polarize_blocks",
    "read_complex_dump",
    "read_hypergraph",
    "restrict_to_graph",
    "ss_width_gap_search",
    "staircase_volume",
    "taylor_complex",
    "verify_minimal",
    "verify_resolution",
    "write_complex_dump",
    "write_geometry",
]
