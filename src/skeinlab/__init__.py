"""skeinlab: exact skein algebras of marked surfaces over sl2 ribbon backends."""

__version__ = "0.1.0"

from .scalars import RingMode, ScalarSeries, classical_mode, epsilon_mode, hbar_mode
from .ribbon_backend import (
    BackendSpec,
    DualObj,
    Morphism,
    ObjectExpr,
    SimpleObj,
    TensorObj,
    UNIT,
    dual,
    make_backend,
    simple,
    tensor_word,
)
from .surface import (
    SurfacePattern,
    annulus,
    disjoint_union,
    disk_with_two_points,
    fuse,
    genus_two_one_boundary,
    once_punctured_torus,
    two_strand_chaps,
)
from .tangle import TangleWord, apply_move, compose, rt_evaluate, tensor
from .skein_algebra import (
    SkeinElement,
    action,
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    mu_op_minus,
    random_element,
    unit_element,
)
from .poisson import (
    SigmaResult,
    biderivation_check,
    check_fusion,
    fock_rosly_sigma,
    sigma_algebraic,
    sigma_goldman,
    symmetrization_check,
)

__all__ = [
    "RingMode", "ScalarSeries", "classical_mode", "epsilon_mode", "hbar_mode",
    "BackendSpec", "DualObj", "Morphism", "ObjectExpr", "SimpleObj", "TensorObj",
    "UNIT", "dual", "make_backend", "simple", "tensor_word",
    "SurfacePattern", "annulus", "disjoint_union", "disk_with_two_points", "fuse",
    "genus_two_one_boundary", "once_punctured_torus", "two_strand_chaps",
    "TangleWord", "apply_move", "compose", "rt_evaluate", "tensor",
    "SkeinElement", "action", "holonomy_evaluate", "lift_element", "loop_element",
    "mu", "mu_op_minus", "random_element", "unit_element",
    "SigmaResult", "biderivation_check", "check_fusion", "fock_rosly_sigma",
    "sigma_algebraic", "sigma_goldman", "symmetrization_check",
]
