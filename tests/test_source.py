"""Checks on the source tree itself."""

import ast
from pathlib import Path

import catdom

SRC = Path(__file__).resolve().parent.parent / "src" / "catdom"


def private_definitions(tree):
    """Module-level functions and classes whose names start with one
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node


def uses(tree, skip=None):
    """Names read in ``tree`` as a bare name or an attribute, outside the
    subtree ``skip``."""
    inside = set() if skip is None else {id(node) for node in ast.walk(skip)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced_private_names(trees):
    """``module:name`` of every private definition that nothing in ``trees``
    reads outside the definition's own body (importing it is not a use)."""
    found = []
    for module, tree in trees.items():
        for node in private_definitions(tree):
            used = any(
                node.name in uses(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                found.append(f"{module}:{node.name}")
    return found


def src_trees():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    return trees


def test_every_private_definition_is_used_in_src():
    trees = src_trees()
    assert unreferenced_private_names(trees) == []


def test_detects_an_unused_private_function():
    trees = {
        "a.py": ast.parse(
            "def _used():\n    pass\n\n"
            "def _recursive(k):\n    return _recursive(k - 1)\n\n"
            "class _Unused:\n    pass\n"
        ),
        "b.py": ast.parse("from .a import _recursive\nimport a\n\na._used()\n"),
    }
    assert unreferenced_private_names(trees) == ["a.py:_recursive", "a.py:_Unused"]


def function_level_imports(trees):
    """``module:line`` of every import statement inside a function or method
    body."""
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{module}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    return sorted(found)


def test_no_function_level_imports_in_src():
    assert function_level_imports(src_trees()) == []


def test_detects_a_function_level_import():
    trees = {
        "a.py": ast.parse(
            "import os\n\n"
            "def f():\n    from .b import g\n    return g\n\n"
            "class C:\n    def m(self):\n        def inner():\n            import sys\n"
        ),
        "b.py": ast.parse("from .a import f\n\ndef g():\n    return f\n"),
    }
    assert function_level_imports(trees) == ["a.py:10", "a.py:4"]


def repr_conversions(trees):
    """``module:line`` of every ``!r`` conversion in an f-string: a quote of
    caller input goes through ``domain._REPR``, which bounds its length."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    )


def test_no_repr_conversions_in_src():
    assert repr_conversions(src_trees()) == []


def test_detects_a_repr_conversion():
    trees = {
        "a.py": ast.parse(
            'x = "y"\n'
            'plain = f"{x} {x!s} {x!a} {repr(x)}"\n\n'
            'def f(w):\n    return f"{x:{w!r}}"\n\n'
            'raise ValueError(\n    f"got {x!r}"\n)\n'
        ),
        "b.py": ast.parse('z = f"{1!r}"\n'),
    }
    assert repr_conversions(trees) == ["a.py:5", "a.py:8", "b.py:1"]


def stream_writes(trees):
    """``module:line`` of every ``print`` call, and every ``write`` call on
    ``sys.stdout`` or ``sys.stderr``, outside ``main`` of ``cli.py``: the
    package's one writer to the standard streams."""
    found = []
    for module, tree in trees.items():
        mains = [
            node for node in tree.body
            if module == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main"
        ]
        inside = {id(node) for main in mains for node in ast.walk(main)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            printed = isinstance(func, ast.Name) and func.id == "print"
            written = (
                isinstance(func, ast.Attribute)
                and func.attr == "write"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in ("stdout", "stderr")
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "sys"
            )
            if printed or written:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_only_cli_main_writes_to_the_standard_streams():
    assert stream_writes(src_trees()) == []


def test_detects_a_write_outside_cli_main():
    trees = {
        "cli.py": ast.parse(
            "import sys\n\n"
            "def _print(doc):\n    print(doc)\n\n"
            "def _cmd(args):\n    sys.stdout.write(args)\n    return ''\n\n"
            "def main(argv=None):\n"
            "    sys.stdout.write(_cmd(argv))\n"
            "    print('error', file=sys.stderr)\n"
            "    def inner():\n        sys.stderr.write('x')\n"
        ),
        "engine.py": ast.parse(
            "import sys\n\n"
            "def main():\n    print('not the cli')\n\n"
            "def save(fh, text):\n    fh.write(text)\n    sys.stderr.write(text)\n"
        ),
    }
    assert stream_writes(trees) == ["cli.py:4", "cli.py:7", "engine.py:4", "engine.py:8"]


# the package's public names; adding or removing one fails here until this
# list is changed on purpose
PUBLIC_NAMES = [
    "AgentBound", "Allocation", "AllocationCheck", "AxiomVerdict", "Behavior", "Bundle",
    "CapacityError", "ConstructionError", "Counterexample", "DirectMechanism",
    "DomainShape", "ExecutionError", "ExecutionTrace", "Exhaustive", "ExperimentConfig",
    "ExperimentResult", "MallowsParams", "MechanismConfig", "OPTIMISTIC", "Optimistic",
    "OrderAnalytics", "PESSIMISTIC", "Pessimistic", "PickingOrder", "Preference",
    "Profile", "RankBoundReport", "RoundRecord", "Sampled", "Scripted", "SearchResult",
    "ValidationError", "adversarial", "all_allocations", "all_optimistic_witness",
    "all_rankings", "allocation_from_json", "allocation_to_json", "analyze_order",
    "apply_category_permutation", "axioms", "balanced_order", "bossy_conditional_sd",
    "bounds", "check_all", "check_category_wise_neutrality", "check_non_bossiness",
    "check_pareto_optimality", "check_strategy_proofness", "decode_bundle",
    "direct_serial_dictatorship", "domain", "egalitarian_rank", "encode_bundle",
    "engine", "interrupter_order", "mallows", "near_optimal_allocation",
    "non_neutral_conditional_sd", "optimistic_bound", "optimistic_choice",
    "order_from_json", "order_to_json", "orders",
    "pessimistic_bound", "pessimistic_choice", "pessimistic_comparison",
    "pickers_in_category", "predecessor_in_category", "profile_from_json",
    "profile_to_json", "results_to_csv", "run_csam", "run_experiment", "sample_mallows",
    "sd_direct", "sd_optimistic_utilitarian", "search_orders",
    "serial_dictatorship_order", "solve_spne", "spne", "state_space_size",
    "strategic_bound", "strategic_worst_profile", "uniform_preference",
    "utilitarian_rank", "validate_allocation", "welfare_maximizer",
    "worst_case_profile", "worst_case_report", "worst_pick_sd",
]


def test_public_names_pinned():
    assert sorted(catdom.__all__) == PUBLIC_NAMES
