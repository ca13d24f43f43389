"""Repository hygiene: the runtime imports only the standard library,
importing the CLI loads neither `dataclasses` nor `inspect`, no layer imports another's private names or reads another's private
attributes, no library guarantee rests on an `assert` (stripped under
`python -O`), no file that .gitignore excludes is tracked, every library
name the benchmark traces still resolves, the benchmark's library
workloads run one small round, `__all__` lists exactly the public names the
package binds, and `SequenceTable` alone holds the ladder formulas."""

import ast
import importlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bannai_ito"


def test_runtime_imports_are_stdlib_or_relative():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                foreign += [f"{path.name}: private {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every bimod process pays this import; dataclasses would add inspect,
    # ast, dis and tokenize to it, and its decorator runs once per record
    script = ("import sys; before = set(sys.modules); import bannai_ito.cli; "
              "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "bannai_ito.cli" in loaded
    assert [name for name in ("dataclasses", "inspect") if name in loaded] == []


def test_private_attributes_stay_with_their_module():
    # a `_name` attribute read in one module must be defined there (a def, an
    # assignment target or a string literal, as in __slots__ and setattr)
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {n.id for n in nodes
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        defined |= {n.attr for n in nodes
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        defined |= {n.value for n in nodes
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        foreign += [f"{path.name}:{n.lineno}: {n.attr}" for n in nodes
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and n.attr.startswith("_") and not n.attr.endswith("__")
                    and n.attr not in defined]
    assert foreign == []


def test_no_assert_in_library():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout
    assert listed.splitlines() == []


def test_benchmark_trace_targets_resolve():
    spans_path = ROOT / "perfbench" / "spans.py"
    if not spans_path.exists():
        pytest.skip("no perfbench/ in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, _, home, attr in spans.TARGETS:
        module = importlib.import_module(f"bannai_ito.{home}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{home}.{attr}")
    assert missing == []


@pytest.mark.parametrize("workload", ["grid", "large_dim", "reducible"])
def test_benchmark_library_workloads_run(workload, monkeypatch):
    # one smoke round in this process, so a change to a constructor the
    # benchmark calls fails here; the cli workload writes files and is left out
    if not (ROOT / "perfbench" / "workloads.py").exists():
        pytest.skip("no perfbench/ in this checkout")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    lib = {layer: importlib.import_module(f"bannai_ito.{layer}")
           for layer in ("exactlinalg", "bimodule", "classify", "universal")}
    make_inputs, task, _ = workloads.WORKLOADS[workload]
    (items,) = make_inputs(lib, 501, True)
    assert items and all(task(lib, item)["conclusive"] for item in items)


def test_package_all_matches_its_public_names():
    # the import block and __all__ of the package must not drift apart
    import bannai_ito

    bound = {name for name, value in vars(bannai_ito).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bannai_ito.__all__) == sorted(bound)


def test_one_table_holds_the_ladder_formulas():
    # both families build through SequenceTable's formulas; a second formula
    # set in a subclass (or anywhere else) would split them again
    formulas = {"theta", "theta_star", "phi_upper", "central_scalars", "ladder"}
    modules = [importlib.import_module(f"bannai_ito.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__main__"]
    owners = [f"{module.__name__}.{name}" for module in modules
              for name, cls in inspect.getmembers(module, inspect.isclass)
              if cls.__module__ == module.__name__ and formulas & set(vars(cls))]
    assert owners == ["bannai_ito.bimodule.SequenceTable"]
