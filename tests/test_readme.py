"""The README's "Library" example runs as written and prints what its
comments say, so a documented name cannot leave the public surface
without a test failing."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_matches_its_comments():
    code = library_block()
    lines = code.splitlines()
    namespace: dict = {}
    comments, values = [], []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            comments.append(lines[node.lineno - 1].split("#", 1)[1].strip())
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert comments == [
        "28",
        "87, the defect-sum oracle",
        "-216 == phi(18, 3)",
        "KsqMinimum(d=19, a_min=2, k2_min=-72, unique=True)",
        "True",
    ]
    castelnuovo, defect, k2, minimum, overall = values
    assert castelnuovo == 28
    assert defect == 87
    assert k2 == -216 == namespace["phi"](18, 3)
    assert repr(minimum) == comments[3]
    assert overall is True
