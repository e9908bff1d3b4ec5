"""The README's Library example runs and gives what its comments state."""

import ast
from pathlib import Path

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
