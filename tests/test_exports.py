"""Export lists: every name a module exports exists, the package exports
exactly its submodules' lists and exactly the pinned public names, and no
module borrows another's private validator."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gbyamabe
from gbyamabe import forms, invariants, linearization, newton, spaceform

MODULES = ["gbyamabe"] + [info.name for info in pkgutil.iter_modules(gbyamabe.__path__, "gbyamabe.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_submodule_lists():
    expected = [
        "__version__",
        *forms.__all__,
        *invariants.__all__,
        *spaceform.__all__,
        *linearization.__all__,
        *newton.__all__,
    ]
    assert gbyamabe.__all__ == expected


# A name is public only if an acceptance criterion, a CLI command, the README
# or the benchmark uses it; a new one needs an edit here.
PUBLIC_NAMES = [
    "__version__",
    # forms
    "DoubleForm", "double_form", "standard_metric", "product", "contract", "inner",
    "is_in_symmetry_class", "algebra_property_suite",
    # invariants
    "InvariantConstants", "invariant_constants", "max_order", "gauss_bonnet", "ricci_2k",
    "raw_kronecker_sum", "gauss_bonnet_kronecker", "space_form_curvature", "space_form_invariant",
    "random_curvature_like",
    # spaceform
    "REAL_PROJECTIVE", "FULL_SPHERE", "SYNTHETIC_HYPERBOLIC", "SpaceForm", "space_form",
    "ZonalBasis", "zonal_basis", "LatitudeField", "field_from_modes", "field_from_values",
    "mode_field", "resample", "sup_norm", "ConformalMetric", "conformal_metric",
    "warped_curvature", "conformal_curvature", "gb_field", "volume", "laplacian",
    "spectrum_gap_check",
    # linearization
    "LinearizationConstants", "constants", "shifted_laplacian", "conformal_linearization",
    "fd_verify", "NondegeneracyViolated", "LinearFunctional", "GeneralizedConstants",
    "generalized_constants", "constancy_diagnostic",
    # newton
    "SolverConfig", "IterationRecord", "SolverReport", "newton_solve", "generalized_solve",
    "sphere_kernel_demo", "continuation_sweep", "CertificateResult", "fixed_point_certificate",
    "quadratic_tail",
]

# Wrappers and test-only helpers that were once public: deleted, private to
# their module (_random_form), defined in the tests that use them
# (_constant_field, _reflect_field), or shared internal rules the sibling
# modules import from invariants.
WITHDRAWN_NAMES = [
    "metric_multiply", "scalar_form", "symmetric_bilinear", "random_form",
    "base_coefficient", "check_problem_order", "hypersurface_sigma_check",
    "constant_field", "reflect_field", "gauss_bonnet_values",
    "full_linearization", "generalized_linearization",
]


def test_package_exports_exactly_the_pinned_names():
    assert len(PUBLIC_NAMES) == 60
    assert gbyamabe.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", WITHDRAWN_NAMES)
def test_withdrawn_names_do_not_resolve_on_the_package(name):
    assert not hasattr(gbyamabe, name)


def test_no_module_imports_another_modules_private_validator():
    borrowed = []
    for path in sorted(Path(gbyamabe.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("gbyamabe")):
                borrowed += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_check")]
    assert borrowed == []
