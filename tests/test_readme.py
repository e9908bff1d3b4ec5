"""The README's Library example runs and gives what its comments state, and
every module name it cites exists."""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import betticount

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_block_gives_what_its_comments_state():
    ns, values = {}, []
    for stmt in ast.parse(library_block()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), ns)
    assert values == ["10", [0, 1, 2, 3], ([-1, 24, 48, 90], 6)]
    assert ns["den"] == 2
    assert (ns["num"], ns["D"], ns["d"]) == ((0, 1, 0, 1, 2), (1, -2, 2, -2, 1), 1)
    assert ns["p"].items() == [((), -1), ((1,), 9)] and ns["p"].den == 6


def module_references() -> set[str]:
    """The distinct `module.name` and `module.Name.attr` references to a
    betticount module that open a backticked span of README.md."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(betticount.__path__))
    return set(re.findall(rf"`((?:{modules})(?:\.\w+){{1,2}})(?=[`(\[ ])", README.read_text(encoding="utf-8")))


def test_every_module_reference_in_the_readme_resolves():
    refs = module_references()
    assert {"conf_counts.limits", "conf_counts.count_values", "conf_betti.SIDE.betti_table"} <= refs
    missing = []
    for ref in sorted(refs):
        module, *path = ref.split(".")
        try:
            functools.reduce(getattr, path, importlib.import_module(f"betticount.{module}"))
        except AttributeError:
            missing.append(ref)
    assert missing == []
