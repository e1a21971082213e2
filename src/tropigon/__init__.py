"""Convex-polygon semirings over the nine imaginary quadratic fields of class number 1.

Exact-arithmetic building blocks (quadratic integers and rationals, symmetric
lattice polygons, piecewise-affine envelopes), the adelic module catalog with
its prime/valuation toolkit, a formal-tensor laboratory for the reduced
quotient, and JSON/SVG front ends.

`import tropigon` loads no submodule: each name below is resolved from its
home module on first use (PEP 562), so a program pays only for the modules
it reads.
"""

import importlib

# the names the package re-exports, by home module
_HOMES = {
    "adelic": (
        "GENERIC", "INERT", "LOCALIZED", "PRINCIPAL", "RAMIFIED", "SPLIT", "ZERO_MODULE", "FiniteSection",
        "GenericFiber", "ModuleHandle", "PrimeFiber", "PrimeIdeal", "ValuationVector", "adele_from_module",
        "complementary_generator", "ideal_count_upto", "iso_class_equal", "module_from_adele", "point_iso",
        "point_over_c", "primes_above", "primes_upto", "pullback_fiber", "section_act", "section_validate", "valuation",
    ),
    "envelope": ("Envelope", "eval_at", "leq", "phi", "phi_inv", "tmax", "tplus"),
    "errors": (
        "BothZero", "DivByZero", "DomainError", "FieldMismatch", "InvalidSection", "MalformedInput", "NotLattice",
        "NotProper", "OutOfDomain", "TropigonError", "WrongField", "ZeroInput", "ZeroModule",
    ),
    "polygeom": (
        "EMPTY", "PROPER", "ZERO", "GeneratorDecomposition", "StalkElement", "SymPolygon", "aut_orbit_equiv", "dk",
        "global_sections_check", "hull_union", "membership_in_generated", "minkowski_sum", "reconstruct_lemma_polygon",
        "scale_act", "sector_decompose", "stalk_scale",
    ),
    "quadfield": ("HEEGNER_DS", "Field", "PlanePoint", "QuadInt", "QuadRat", "canonical_unit_rep", "field", "gcd"),
    "render": ("render_polygon_svg",),
    "tensorlab": (
        "DISTINCT", "EQUAL", "POSSIBLY_EQUAL", "UNKNOWN", "FormalTensor", "ReducedElement", "act_pair",
        "cancellation_instance", "cancellativity_experiment", "eval_separator", "eval_tensor_at", "gamma", "normalize",
        "reduced_add", "reduced_equal", "reduced_mul", "tensor_add", "tensor_mul", "tensor_product",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
