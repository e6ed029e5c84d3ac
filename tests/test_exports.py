"""Each module's ``__all__`` is its public surface, and the package
re-exports only names from it."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import bellfringe


def test_all_lists_match_public_definitions():
    problems = []
    for info in pkgutil.iter_modules(bellfringe.__path__):
        module = importlib.import_module(f"bellfringe.{info.name}")
        exported = getattr(module, "__all__", None)
        if exported is None:  # the CLI has no library surface
            continue
        problems += [f"{module.__name__}.{name} does not resolve"
                     for name in exported if not hasattr(module, name)]
        problems += [
            f"{module.__name__}.{name} is public but not in __all__"
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
            and name not in exported
        ]
    tree = ast.parse(pathlib.Path(bellfringe.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"bellfringe.{node.module}")
            problems += [
                f"bellfringe imports {node.module}.{alias.name}, not in its __all__"
                for alias in node.names
                if alias.name not in module.__all__
            ]
    assert problems == []
