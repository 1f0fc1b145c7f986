"""What each entry point loads: the package exports lazily, each CLI
command imports only the sirlyap modules it runs, and every command but
`certify` and the endemic x2t-plane `levelsets` runs without numpy, and
without `dataclasses` or `inspect`."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sirlyap as sl

ROOT = Path(__file__).resolve().parents[1]

#: the number of public names; a new export is a decision, made here
N_EXPORTS = 48

DF = {
    "model": {"beta": 0.0002, "gamma": 0.032, "mu": 0.015, "b_hat": 3.0},
    "equilibrium": "df",
    "lyap": {"mu0": 0.0148, "eps": 0.0745},
    "x0": [100.0, 50.0, 0.0],
    "horizon": 20.0,
    "levels": [30.0],
    "resolution": [40, 40],
}
EN = {
    "model": {"beta": 0.0002, "gamma": 0.032, "mu": 0.015, "b_hat": 17.0},
    "equilibrium": "endemic",
    "lyap": {"lambda_hat2": 0.01, "k": 0.0902, "l_bar": 340.0},
    "levels": [100.0],
    "resolution": [40, 40],
}
# the endemic level sets on a plane x2t = c: a graph over x1t, whose
# heights come from the array evaluation of V
EN_X2T = {**EN, "plane": {"axis": "x2t", "value": 0.0}}
# the disease-free scenario on a 40x faster clock, with small samples: a
# full certify run in well under a second
DF_FAST = {
    **DF,
    "model": {k: 40.0 * v for k, v in DF["model"].items()},
    "lyap": {"mu0": 40.0 * 0.0148, "eps": 0.0745},
    "grid_n": 4,
    "n_samples": 10,
}

BASE = {"errors", "model", "flow", "bands"}


def _fresh(code: str, *args: str) -> str:
    """Stdout of `code` run in a new interpreter that imports sirlyap from src."""
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# `python -m sirlyap.cli ARGS`, then the sirlyap modules it loaded, whether
# numpy was loaded, and which of the heavy standard modules it loaded
_RUN_COMMAND = """
import json, runpy, sys
sys.argv[0] = "sirlyap.cli"
try:
    runpy.run_module("sirlyap.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m[8:] for m in sys.modules if m.startswith("sirlyap.")),
                  "numpy" in sys.modules,
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


@pytest.mark.parametrize("command, cfg, extra", [
    ("equilibria", DF, set()),
    ("simulate", DF, set()),
    ("params", DF, {"lyap_df"}),
    ("levelsets", EN, {"lyap_df", "lyap_en", "levelset"}),
    ("certify", DF_FAST, {"lyap_df", "lyap_en", "ode", "verify"}),
    ("params", EN, {"lyap_df", "lyap_en"}),
    ("levelsets", DF, {"lyap_df", "levelset"}),
    ("levelsets", EN_X2T, {"lyap_df", "lyap_en", "levelset"}),
])
def test_each_command_loads_only_its_modules(tmp_path, command, cfg, extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = _fresh(_RUN_COMMAND, command, "--config", str(path), "--out", str(tmp_path / "out"))
    rc, loaded, numpy_loaded, heavy = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert set(loaded) == BASE | extra
    assert numpy_loaded is (command == "certify" or cfg is EN_X2T)
    if not numpy_loaded:  # numpy itself imports inspect
        assert heavy == []


def test_flow_loads_without_numpy():
    out = _fresh("import sys\n"
                 "import sirlyap.flow\n"
                 "print(sorted(m for m in sys.modules if m.startswith('sirlyap')), "
                 "'numpy' in sys.modules)")
    assert out.split() == ["['sirlyap',", "'sirlyap.errors',", "'sirlyap.flow',",
                           "'sirlyap.model']", "False"]


def test_cli_module_loads_every_traced_layer():
    # imported as a module, the CLI loads every layer, so the benchmark's
    # tracer finds each module it wraps before it calls main
    out = _fresh("import sys\n"
                 f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
                 "import tracer\n"
                 "tracer.install(tracer.Recorder())\n"
                 "print(all(f'sirlyap.{m}' in sys.modules\n"
                 "          for m, *_ in tracer.SPANS + tracer.LEAVES))")
    assert out.split() == ["True"]


def test_import_loads_no_submodule():
    out = _fresh("import sys, sirlyap\n"
                 "print(sorted(m for m in sys.modules if m.startswith('sirlyap')), "
                 "'numpy' in sys.modules)")
    assert out.split() == ["['sirlyap']", "False"]


def test_every_export_is_its_submodules_object():
    assert len(set(sl.__all__)) == len(sl.__all__) == N_EXPORTS
    for name in sl.__all__:
        owner = importlib.import_module(f"sirlyap.{sl._EXPORTS[name]}")
        assert getattr(sl, name) is getattr(owner, name), name
        assert name in dir(sl)


def test_submodule_attribute_and_unknown_name():
    assert sl.model is sys.modules["sirlyap.model"]
    out = _fresh("import sirlyap\nprint(sirlyap.verify.__name__, sirlyap.__version__)")
    assert out.split() == ["sirlyap.verify", "0.1.0"]
    with pytest.raises(AttributeError, match="no_such_name"):
        sl.no_such_name


def test_only_the_cli_imports_verify():
    # the Lyapunov classes describe V and the layers below them step flows;
    # certify's suites sit above them in verify, so no import cycle returns.
    # The CLI imports verify inside its certify command: function-level
    # imports count too.
    importers = set()
    for path in sorted((ROOT / "src" / "sirlyap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["sirlyap" if node.level else "", node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if "sirlyap.verify" in names:
                importers.add(path.stem)
    assert importers - {"verify"} == {"cli"}
