from .engine import (
    EngineError,
    Graph,
    LabelError,
    ShapeError,
    Tensor,
    add,
    attention,
    block_self_attention,
    concat_rows,
    conv_stage,
    conv_unfold,
    cross_entropy,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    mul,
    param,
    record,
    scale,
    sigmoid,
    silu,
    slice_cols,
    softmax_rows,
    sum_all,
    tensor,
    transpose,
)
from .gradcheck import DeterminismError, finite_diff_check
from .optim import GradAccumSgd
from .rng import Rng

__all__ = [
    "EngineError", "Graph", "LabelError", "ShapeError", "Tensor",
    "add", "attention", "block_self_attention", "concat_rows", "conv_stage", "conv_unfold",
    "cross_entropy", "gather_rows", "layer_norm", "linear", "matmul", "mul", "param",
    "record", "scale", "sigmoid", "silu",
    "slice_cols", "softmax_rows", "sum_all", "tensor",
    "transpose", "DeterminismError", "finite_diff_check",
    "GradAccumSgd", "Rng",
]
