"""The package's names load on first use: ``import dfdr`` loads no numpy."""

import importlib

import pytest

import dfdr
from conftest import run_python


def test_import_loads_no_numpy():
    code = "import sys, dfdr; print('numpy' in sys.modules, dfdr.cli.__name__, 'numpy' in sys.modules)"
    assert run_python(code).split() == ["False", "dfdr.cli", "True"]


def test_each_export_is_its_defining_modules_object():
    for name in dfdr.__all__:
        value = getattr(dfdr, name)
        module = getattr(value, "__module__", None) or f"dfdr.{dfdr._EXPORTS[name]}"
        assert module.startswith("dfdr."), name
        assert getattr(importlib.import_module(module), name) is value, name


def test_star_import_gives_every_export():
    namespace = {}
    exec("from dfdr import *", namespace)
    assert {name: namespace[name] for name in dfdr.__all__} == {
        name: getattr(dfdr, name) for name in dfdr.__all__
    }


def test_submodules_resolve_as_attributes():
    assert dfdr.simulation is importlib.import_module("dfdr.simulation")
    assert {"cli", "stats", "StatisticSet"} <= set(dir(dfdr))


def test_one_set_class_and_one_decider_per_rule():
    assert dfdr.StatisticSet is dfdr.estimators.StatisticSet
    for gone in ("NullSummary", "maximize_desirability_pvalues", "control_dfdr_pvalues",
                 "estimate_pi0_from_pvalues"):
        assert gone not in dfdr.__all__
        assert not hasattr(dfdr.estimators, gone) and not hasattr(dfdr.decision, gone)
    assert not hasattr(dfdr.stats, "StatisticSet")
    # one Welch kernel entry, taking group memberships
    assert not hasattr(dfdr.stats, "memberships") and not hasattr(dfdr.stats, "welch_table")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'dfdr' has no attribute 'nothing'"):
        dfdr.nothing
    with pytest.raises(ImportError, match="cannot import name 'nothing'"):
        from dfdr import nothing  # noqa: F401
