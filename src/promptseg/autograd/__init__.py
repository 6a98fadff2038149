from .tensor import (
    DegenerateBatchError,
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    no_grad,
    shadow_precision,
)

__all__ = [
    "DegenerateBatchError",
    "NonFiniteError",
    "ShapeError",
    "Tape",
    "Tensor",
    "no_grad",
    "shadow_precision",
]
