"""The names other code binds: `chainplan.__all__`, the benchmark tracer's
layer table, which wraps chainplan functions by module and attribute name,
and the report functions the benchmark's checks import."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import chainplan

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in chainplan.__all__ if not hasattr(chainplan, name)]
    assert missing == []
    assert len(set(chainplan.__all__)) == len(chainplan.__all__)


def test_readme_lists_the_exported_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in chainplan.__all__ if not re.search(rf"`{name}[`(]", section)]
    assert missing == []


def test_tracer_bindings_exist():
    tracer = load_tracer()
    bindings = [(module, attr) for _, module, attr, _ in tracer.LAYERS]
    bindings.append(tracer.CLOSURE[1:])
    assert tracer.LAYERS
    for module, attr in bindings:
        mod = importlib.import_module(f"chainplan.{module}")
        assert callable(getattr(mod, attr, None)), f"chainplan.{module}.{attr}"
    # The tracer also counts ServiceChain.with_placement calls.
    assert callable(chainplan.ServiceChain.with_placement)


def test_benchmark_check_imports_exist():
    from chainplan.reports import parse_timeline_csv, timeline_to_csv

    assert callable(parse_timeline_csv) and callable(timeline_to_csv)


def test_readme_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
