"""The library's settable parameters, counted so that a new one is a
decision: every option doubles the configurations to test and measure."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sirlyap"

#: the defaulted parameters the `def`s of src/sirlyap have together, exactly,
#: so that removing an option lowers the pin and the freed room is not reused
MAX_SETTABLE = 50


def _settable(path: Path) -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_settable_parameter_count():
    per_module = {path.name: _settable(path) for path in sorted(SRC.glob("*.py"))}
    total = sum(per_module.values())
    assert total == MAX_SETTABLE, (
        f"src/sirlyap has {total} defaulted parameters, not {MAX_SETTABLE}: for a removed one, "
        f"lower MAX_SETTABLE; for a new one, justify the knob in CHANGES.md (which callers "
        f"need which values) and raise MAX_SETTABLE, or make it a constant. "
        f"Per module: {per_module}")
