"""README.md against the package: its Python examples run, and its removed names are gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pseudosym

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def removed_names() -> list[str]:
    """The backticked names that open each bullet of the "Removed names" section.

    A dotted name such as `Polynomial.mul_term` is an attribute of a class.
    """
    section = README.split("\n## Removed names\n", 1)[1].split("\n## ", 1)[0]
    heads = re.findall(r"^\* ((?:`[\w.]+`,?\s*)+)", section, re.M)
    return [name for head in heads for name in re.findall(r"`([\w.]+)`", head)]


def still_present(module, name: str) -> bool:
    """True iff `module` has `name`; a dotted name is looked up on the class it starts with."""
    owner = module
    for part in name.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_python_block_runs(index):
    exec(compile(python_blocks()[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_a_python_block():
    assert python_blocks()


def test_removed_names_are_gone():
    names = removed_names()
    assert {"UniPoly", "TangentConeIdeal", "lowest_form", "cm_by_divisibility",
            "colon_stability", "leading_term"} <= set(names)
    assert {"MonomialOrder.compare", "LESS", "EQUAL", "GREATER", "divides",
            "Polynomial.leading_term", "Polynomial.lc", "Polynomial.mul_term", "mono_mul",
            "ecart", "total_deg", "sdegree", "SemigroupTable", "Polynomial.ecart",
            "UnsupportedParametersError", "MonomialOrder.sort_key", "GLOBAL", "Term",
            "Polynomial.terms", "closed_form_second_series", "MonomialOrder.local",
            "normalize", "with_order", "Polynomial.coeff", "Polynomial.order", "basis_set",
            "ToricSystem", "construct_generators", "numerical_semigroup", "HilbertReport",
            "CmVerdict"} <= set(names)
    modules = [pseudosym] + [importlib.import_module(f"pseudosym.{info.name}")
                             for info in pkgutil.iter_modules(pseudosym.__path__)]
    for module in modules:
        present = [name for name in names if still_present(module, name)]
        assert not present, f"{module.__name__} still has {present}"
