"""The public surface: what `segswap` exports, what it no longer exports,
and the names the per-layer tracer in `bench/tracer.py` wraps."""

import ast
import importlib
import importlib.util
import inspect
import warnings
from pathlib import Path

import pytest

import segswap
from segswap.graph import ExchangeGraph, PreferenceList
from segswap.matching import Matching
from segswap.model import Instance, SegmentSet, SlotState, make_instance
from segswap.oracle import optimal_aggregate

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    for name in segswap.__all__:
        assert hasattr(segswap, name), name


def test_deleted_names_are_gone():
    for name in (
        "FirstPreferenceDigraph",
        "first_preference_digraph",
        "confidence_interval",
        "TooFewSamplesError",
        "incremental_gain",
    ):
        assert name not in segswap.__all__
        assert not hasattr(segswap, name)
    for name in (
        "Schedule",
        "ConstantSchedule",
        "CallableSchedule",
        "as_schedule",
        "per_node_schedules",
    ):
        assert name not in segswap.__all__
        assert not hasattr(segswap, name) and not hasattr(segswap.model, name)
    assert not hasattr(segswap.metrics, "_Z")
    assert not hasattr(segswap.Scenario, "validate")
    assert not hasattr(segswap.strategies, "MAX_ENGINE_BYTES")
    assert not hasattr(segswap.oracle, "MAX_SEARCH_BYTES")
    assert not hasattr(segswap.strategies, "_row_mask")
    assert not hasattr(segswap.strategies, "_draw_block")
    assert not hasattr(segswap.strategies, "_draw_rows")
    for name in ("_refresh", "_merge", "_segment_sets"):
        assert not hasattr(segswap.strategies, name)
    assert not hasattr(segswap.graph, "_fmt_gain")
    assert not hasattr(segswap.graph, "incremental_gain")
    for name in ("UTILITY_FUNCTIONS", "utility_function"):
        assert not hasattr(segswap.model, name)
    for name in ("_children", "_next_step", "_plain_search"):
        assert not hasattr(segswap.oracle, name)
    for cls, attr in (
        (PreferenceList, "limit"),
        (PreferenceList, "neighbor_ids"),
        (PreferenceList, "render"),
        (PreferenceList, "owner"),
        (ExchangeGraph, "render"),
        (ExchangeGraph, "slot"),
        (ExchangeGraph, "m"),
        (ExchangeGraph, "edges"),
        (SegmentSet, "full"),
        (SegmentSet, "cardinality"),
        (SegmentSet, "complement"),
        (SegmentSet, "issubset"),
        (SegmentSet, "union"),
        (SegmentSet, "intersection"),
        (SegmentSet, "__or__"),
        (SegmentSet, "__and__"),
        (SegmentSet, "__contains__"),
        (SegmentSet, "__iter__"),
        (Matching, "lists"),
        (Matching, "partner"),
        (Matching, "render"),
        (SlotState, "rng"),
        (Instance, "cost_per_download"),
        (Instance, "sap_schedules"),
        (Instance, "pef_schedules"),
    ):
        # the class and its bases, not the metaclass: `type` has `__or__`
        assert not any(attr in vars(c) for c in cls.__mro__), (cls.__name__, attr)
        assert attr not in getattr(cls, "__dataclass_fields__", {})


def test_options_only_tests_set_are_gone():
    assert "memoize" not in inspect.signature(optimal_aggregate).parameters
    params = inspect.signature(make_instance).parameters
    assert "max_attempts" not in params and "utility" not in params
    assert "utility" not in inspect.signature(Instance.build).parameters
    assert "utility" not in Instance.__dataclass_fields__


def test_every_module_level_name_has_a_caller_or_is_exported():
    """Code with no caller is deleted: every function, class and assigned
    name at the top of a module is referenced (as a name or an attribute)
    by another top-level statement of the package outside `__init__.py`,
    or is exported in `segswap.__all__`."""
    definitions = []  # (name, module, index of the defining statement)
    references = []  # (module, statement index, names it references)
    for path in sorted((ROOT / "src" / "segswap").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for at, stmt in enumerate(ast.parse(path.read_text()).body):
            references.append((path.name, at, {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            definitions += [(name, path.name, at) for name in names]
    assert definitions
    unused = [
        f"{module}: {name}"
        for name, module, at in definitions
        if name not in segswap.__all__
        and not any(
            name in names for m, i, names in references if (m, i) != (module, at)
        )
    ]
    assert unused == []


def test_tracer_call_sites_resolve():
    spec = importlib.util.spec_from_file_location("segswap_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.CALL_SITES
    for module, name, _ in tracer.CALL_SITES:
        target = getattr(importlib.import_module(f"segswap.{module}"), name, None)
        assert callable(target), (module, name)


def test_engine_imports_only_the_tracer_reexports_from_the_reference_layer():
    """The engine is checked against `graph` and `matching`, so it may not
    run on them: it imports only the two names the tracer wraps."""
    tree = ast.parse((ROOT / "src" / "segswap" / "strategies.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.setdefault(node.module, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
    assert imported["graph"] == {"preference_list"}
    assert imported["matching"] == {"find_stable_matching"}
    assert not {"graph", "matching"} & imported.get(None, set())
    assert not any(m and m.startswith("segswap") for m in imported)


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools marks pyproject.toml configuration as beta
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == segswap.__version__
