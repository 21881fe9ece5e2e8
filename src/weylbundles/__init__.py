"""Exact symbolic computation for generalized Weyl algebras, their graded
ambient algebras, strong connections, line-bundle idempotents, cyclic traces
and the integer index pairing, over the rationals."""

from .ambient import AmbientAlgebra, AmbientElem, embed_degree_zero, project_degree_zero
from .config import Config, load_config, preset
from .connection import (
    IdemMatrix,
    Tensor2,
    check_connection,
    connection_power,
    connection_power_alt,
    idempotent,
    idempotent_trace,
    idempotent_trace_recursive,
    unit_in_degree,
)
from .gwa import (
    AlgebraMismatch,
    GwaAlgebra,
    GwaElem,
    commutator_closed_form,
)
from .grading import (
    GradedView,
    Witness,
    ambient_graded_view,
    compose_witnesses,
    induced_quotient_view,
    veronese_view,
    witness_search,
)
from .poly import (
    AffineAuto,
    PairPoly,
    UniPoly,
    auto_shift_product,
    factor_zero_root,
    frac,
    tail_decompose,
)
from .traces import CyclicTrace, chern_pairing, chern_pairings, verify_trace

__version__ = "0.1.0"

__all__ = [
    "AffineAuto", "AlgebraMismatch", "AmbientAlgebra", "AmbientElem",
    "Config", "CyclicTrace", "GradedView", "GwaAlgebra", "GwaElem",
    "IdemMatrix", "PairPoly", "Tensor2", "UniPoly", "Witness",
    "ambient_graded_view", "auto_shift_product",
    "check_connection", "chern_pairing", "chern_pairings",
    "commutator_closed_form", "compose_witnesses", "connection_power",
    "connection_power_alt", "embed_degree_zero", "factor_zero_root", "frac",
    "idempotent", "idempotent_trace", "idempotent_trace_recursive",
    "induced_quotient_view", "load_config", "preset", "project_degree_zero",
    "tail_decompose", "unit_in_degree", "veronese_view", "verify_trace", "witness_search",
]
