"""Certified finite-precision cohomology of multiplicatively degenerating curves.

The package computes, at a stated p-adic precision and monomial window,
the cohomology of the standard chart cover of such a curve: Frobenius,
monodromy, the branch-dependent period matrix for every branch of the
p-adic logarithm, and the resulting filtered Frobenius-monodromy module.
Every reported quantity carries an explicit certification floor; when a
certificate cannot be produced the code raises instead of guessing.
"""

from .cech import (BlockIndex, CechCochain, CechSpec, cech_D, cech_frobenius,
                   cech_N, cech_psi, class_e1, class_e2, coboundary_witness,
                   express_in_classes, h_ranks, is_cocycle, operator_matrix,
                   top_class, unit_class)
from .charts import ChartElement, FiberElement
from .errors import (AmbiguousPivot, AmbiguousSolve, AmbiguousValuation,
                     CertificationError, ChartMismatch,
                     DivisionByIndistinguishableZero, NotACoboundary,
                     NotAOneUnit, NotInSpan, NotNilpotent, TaintedWindow)
from .field import (FieldDescriptor, KElement, k_teichmuller, parse_eisenstein,
                    parse_element, unit_decompose)
from .kimhain import UForm
from .linalg import (PrecMatrix, int_kernel_sparse, int_rank_sparse,
                     kernel_basis, rank_at, row_reduce, solve)
from .padic import PadicContext, PadicScalar, teichmuller, vp
from .phin import (FilteredPhiNModule, PhiNModule, branch_transition,
                   embed_matrix, exp_unipotent, matrix_det, matrix_inverse,
                   matrix_same_at, tate_object)
from .pipeline import (JobSpec, TateComputation, compute_tate, parse_expansion,
                       render_report, report_diff, run_tate_job, suite_names,
                       verify_suite)
from .pipeline import _VERSION as __version__
from .plog import LogBranch, branch_from_spec, log_one_unit, log_unit, series_cutoff

__all__ = [
    "AmbiguousPivot", "AmbiguousSolve", "AmbiguousValuation", "BlockIndex",
    "CechCochain", "CechSpec", "CertificationError", "ChartElement",
    "ChartMismatch", "DivisionByIndistinguishableZero", "FiberElement",
    "FieldDescriptor", "FilteredPhiNModule", "JobSpec", "KElement",
    "LogBranch", "NotACoboundary", "NotAOneUnit", "NotInSpan", "NotNilpotent",
    "PadicContext", "PadicScalar", "PhiNModule", "PrecMatrix",
    "TaintedWindow", "TateComputation", "UForm", "branch_from_spec",
    "branch_transition", "cech_D", "cech_N", "cech_frobenius", "cech_psi",
    "class_e1", "class_e2", "coboundary_witness", "compute_tate",
    "embed_matrix", "exp_unipotent", "express_in_classes", "h_ranks",
    "int_kernel_sparse", "int_rank_sparse", "is_cocycle", "k_teichmuller",
    "kernel_basis", "log_one_unit",
    "log_unit", "matrix_det", "matrix_inverse", "matrix_same_at",
    "operator_matrix", "parse_eisenstein", "parse_element",
    "parse_expansion", "rank_at", "render_report",
    "report_diff", "row_reduce", "run_tate_job", "series_cutoff", "solve",
    "suite_names", "tate_object", "teichmuller", "top_class", "unit_class",
    "unit_decompose", "verify_suite", "vp",
]
