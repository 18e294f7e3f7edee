"""Exact chromatic polynomials of double-ended triangular-lattice strips,
transfer-matrix machinery, spectral end-graph classification, and real
chromatic root isolation near 4.
"""

__version__ = "0.1.0"

from .chromatic import (PartitionVector, ResourceLimitError,
                        chromatic_polynomial, count_colourings_oracle,
                        partitioned_chromatic)
from .exactnum import IntPolynomial, QuadExt, falling_factorial
from .graphs import (AdjacentMergeError, ColouringType, FramedGraph, Graph,
                     diagonal_contraction, double_ended_strip, load_fixture,
                     parse_graph_text, wheel4)
from .roots import (ComplexRootSet, RootBracket, bisect, bracket_near_four,
                    complex_roots, largest_root_near_four, sturm_count)
from .spectral import (Classification, EigenSystem, classify_end_graph,
                       decompose, eigensystem_at, orthogonality_check,
                       planar_face_identity, predict_roots_to_four)
from .transfer import (StripFamily, TransferMatrix, build_M, build_MD,
                       extend_one_layer, family_polynomial, family_value_at,
                       glue, golden_identity_check, verify_M_against_oracle)
