"""Hierarchical nested-lattice quantization with lookup-table inner products."""

from .codec import (
    HierarchicalParams,
    SandwichReport,
    enumerate_codebook,
    h_encode_many,
    nesting_radius_ratio,
    outer_nesting_ratio,
    reduced_nesting_ratio,
    verify_sandwich,
)
from .errors import UnencodableError
from .lattices import (
    Lattice,
    coords_of,
    default_tie_breaker,
    make_lattice,
    second_moment,
)
from .lut import (
    InnerProductLUT,
    build_lut,
    check_lut,
    digits_to_index,
    index_to_digits,
    load_lut,
    lut_ip,
    lut_ip_dithered,
    save_lut,
)
from .pipeline import (
    PipelineConfig,
    QuantizedMatrix,
    QuantizedVector,
    ip_approx,
    load_quantized_matrix,
    matmul_approx,
    paired_ip_approx,
    quantize_matrix,
    quantize_vector,
    random_rotation,
    reconstruct_chunks,
    save_quantized_matrix,
)
from .scaling import (
    ScalingConfig,
    empirical_rate,
)
from .voronoi import VoronoiCodeParams

__version__ = "0.1.0"

__all__ = [
    "HierarchicalParams",
    "InnerProductLUT",
    "Lattice",
    "PipelineConfig",
    "QuantizedMatrix",
    "QuantizedVector",
    "SandwichReport",
    "ScalingConfig",
    "UnencodableError",
    "VoronoiCodeParams",
    "build_lut",
    "check_lut",
    "coords_of",
    "default_tie_breaker",
    "digits_to_index",
    "empirical_rate",
    "enumerate_codebook",
    "h_encode_many",
    "index_to_digits",
    "ip_approx",
    "load_lut",
    "load_quantized_matrix",
    "lut_ip",
    "lut_ip_dithered",
    "make_lattice",
    "matmul_approx",
    "nesting_radius_ratio",
    "outer_nesting_ratio",
    "paired_ip_approx",
    "quantize_matrix",
    "quantize_vector",
    "random_rotation",
    "reconstruct_chunks",
    "reduced_nesting_ratio",
    "save_lut",
    "save_quantized_matrix",
    "second_moment",
    "verify_sandwich",
]
