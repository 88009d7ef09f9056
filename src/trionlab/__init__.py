"""Variational exciton and trion binding energies for carbon nanotubes.

Pipeline: tight-binding effective masses -> effective Rydberg/Bohr units
-> variational (or mean-field) solution of the cylinder-surface few-body
problem in a Gaussian x angular basis.  Public names load from their
submodules on first access (PEP 562): `import trionlab` loads no numerics.
"""
import importlib

__version__ = "0.1.0"
# Nodes per panel of the default outer Coulomb rule (`QuadratureSpec`),
# here so that the CLI offers it without loading `quadrature`.
OUTER_ORDER = 24

_HOMES = {
    "basis": ("AngularSet", "AxialBasis", "BasisSpec", "coulomb_potential",
              "preset_basis", "scale_exponents"),
    "hartree_fock": ("HFState", "hf_binding_energy", "scf"),
    "optimizer": ("OptimizationRun", "optimize"),
    "quadrature": ("QuadratureSpec",),
    "solver": ("Spectrum", "TrionResult", "binding_energy", "exciton_energy",
               "solve_generalized", "trion_energy"),
    "tightbinding": ("ChiralIndex", "EffectiveMasses", "TightBindingParams",
                     "effective_masses", "enumerate_species",
                     "fermi_velocity", "is_semiconducting", "radius"),
    "units": ("EffectiveUnits", "Environment", "dimensionless_radius",
              "effective_units", "to_physical_energy"),
}
_HOME = {name: mod for mod, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
