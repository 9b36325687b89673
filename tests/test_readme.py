"""The Python example of README.md runs and gives the values its comments state."""
import ast
import re
from fractions import Fraction as F
from pathlib import Path

import flatlyap as fl

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_example() -> tuple[list, dict]:
    """The value of each expression statement of the README's one Python
    block, in order, and the names its assignments bound."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    values, scope = [], {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    return values, scope


def test_readme_example_gives_the_values_in_its_comments():
    values, scope = _run_example()
    (stratum, cylinders, L, kind, slope, logan, locus_L, cover, extremal, first) = values
    assert stratum == fl.Stratum((2,)) and stratum.genus == 2
    assert cylinders.cylinders == ((4, 1), (1, 1)) and cylinders.sum_h_over_w == F(5, 4)
    assert L == F(4, 3)
    assert kind == "hyperelliptic"
    assert slope == (F(209, 27), F(9, 4), F(209, 144))
    assert logan == fl.logan_divisor(3, (1, 2))
    assert locus_L == F(23, 10)
    assert cover == (fl.Stratum((4, 1, 1)), 4)
    assert extremal is True
    assert len(scope["keys"]) == 126 and len(scope["parts"]) == 10
    assert first == fl.Stratum((2, 2))
