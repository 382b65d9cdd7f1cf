"""The names ``minenergy`` exports, and where each is defined.

The package re-exports each module's ``__all__`` with a star import, so a
name dropped from a module's ``__all__`` would vanish from the package
without any other test noticing.  ``PUBLIC`` holds every name the package
promises, by the module that defines it.
"""

import importlib
import inspect
import subprocess
import sys

import minenergy

PUBLIC = {
    "errors": [
        "MarginError", "MeshResolutionError", "MinEnergyError", "NonFiniteError",
        "NotInSpaceError", "NotPSDError", "NotSymmetricError", "PreconditionError",
        "ReachabilityError", "ScenarioError", "StiffnessError", "UnstableSystemError",
    ],
    "linalg": [
        "REL_THRESHOLD", "RangeInclusion", "SymmetricPSD", "commutes", "commuting_pinv_compose",
        "expm", "negative_type_bound", "negligible", "pinv", "range_inclusion", "rank_mask",
    ],
    "systems": ["LinearSystem", "Model", "random_stable_system"],
    "gramians": [
        "Gramian", "KernelChainReport", "RangeEqualityReport", "compute_gramian",
        "gramian_block_exponential", "gramian_commuting_closed_form", "gramian_lyapunov_ode",
        "gramian_quadrature", "gramian_quadrature_sweep", "gramian_rate", "kernel_chain_check",
        "range_equality_check",
    ],
    "energy": [
        "ControlSignal", "EuclideanGeometry", "HGeometry", "LeastNormControl",
        "NullControllability", "Steering", "Trajectory",
        "brute_force_min_energy", "feedback_gain", "h_norm",
        "null_controllability_test", "optimal_control", "optimal_samples", "optimal_trajectory",
        "simulate_control", "steer", "value_function",
    ],
    "riccati": [
        "CommutingSolution", "LyapunovReport", "ProjectionReport", "RecoverLReport",
        "ResidualReport", "RiccatiCandidate", "UniquenessReport", "build_pv",
        "commuting_candidate", "commuting_family", "detect_t1", "inverse_candidate",
        "lyapunov_residual", "projected_solution_check", "pv_candidate", "recover_L",
        "residual_probes", "riccati_pairings", "riccati_residual", "riccati_residual_commuting",
        "uniqueness_reconstruction",
    ],
    "models.spectral": [
        "SpectralClassification", "SpectralNCReport", "SpectralSystem", "landau_ginzburg",
        "power_law", "spectral_gramian", "spectral_null_controllability",
        "spectral_space_h_classification", "thin_control_example",
    ],
    "models.delay": [
        "DelaySystem", "delay_domain_residual", "delay_fundamental_solution", "delay_gramian",
        "delay_optimal_control", "delay_semigroup_matrix",
    ],
    "models.shift": [
        "ShiftSystem", "shift_benchmark_target", "shift_control_map", "shift_gramian",
        "shift_value_oracle",
    ],
    "models": ["parse_model"],
}


def test_every_public_name_is_its_module_s():
    assert sum(map(len, PUBLIC.values())) == 97
    for modname, names in PUBLIC.items():
        module = importlib.import_module("minenergy." + modname)
        for name in names:
            obj = getattr(minenergy, name)
            assert obj is getattr(module, name), (modname, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (modname, name)


def test_importing_the_cli_loads_every_layer():
    # imports stay eager: a fresh interpreter compiles what it imports, and a
    # module imported on demand would move that cost into the run
    code = "import sys, minenergy.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout.split()
    for module in ("riccati", "models.spectral", "models.delay", "models.shift", "artifacts"):
        assert "minenergy." + module in loaded
