"""Spectrum of the 5D deformed Kepler system in a Yang-Coulomb monopole
field, computed three independent ways: algebraically through deformed
oscillator representations of the quadratic symmetry algebra, numerically
through the separated ODE eigenvalue problems, and through the duality map
to the 8D singular harmonic oscillator.

The public names and the submodules are imported on first access, so
`import monopole_spectra` loads neither numpy nor scipy.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "algebra": (
        "RAW_TO_FACTORED_SCALE", "UnirrepSolution", "aux_exponents", "degeneracy_count",
        "energy_level", "factored_roots", "solve_unirrep", "structure_function_factored",
        "structure_function_raw", "ycm_energy",
    ),
    "duality": ("kepler_from_oscillator", "oscillator_from_kepler", "spectrum_identity_check"),
    "fock": (
        "AlgebraReport", "DeformedOscillatorRep", "GeneratorMatrices", "build_generators",
        "build_rep", "verify_algebra",
    ),
    "params": ("AuxExponents", "ModelParams", "QuantumNumbers"),
    "specfun": ("end_exponent", "jacobi_p", "kummer_poly"),
    "spectra": (
        "EigenResult", "SturmLiouvilleProblem", "cylindrical_spectrum",
        "kepler_angular_spectrum", "kepler_radial_spectrum", "oscillator_angular_spectrum",
        "oscillator_radial_spectrum", "parabolic_quantization",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
