import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, folder, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load("ab")

# desk-sweeps wall_s over ten alternating pairs, parent then change
PARENT = [0.680, 0.809, 0.949, 0.852, 0.891, 0.853, 0.960, 0.922, 0.748, 0.715]
CHANGE = [0.608, 0.730, 0.522, 0.568, 0.679, 0.477, 0.662, 0.681, 0.434, 0.523]


def test_ab_summary_resolves_a_gain_won_in_every_pair():
    s = ab.summarize(PARENT, CHANGE, "lower", 0.25)
    assert (s["parent"], s["change"], s["wins"], s["pairs"]) == (0.8525, 0.588, 10, 10)
    assert s["q1"] == pytest.approx(0.73975) and s["q3"] == pytest.approx(0.92875)
    assert s["iqr"] == pytest.approx(0.189)
    assert s["verdict"] == "resolved gain"


def test_ab_summary_verdicts():
    # the same gap in 8 of 10 pairs, or in 9 of 9, is not resolved
    assert ab.summarize(PARENT, CHANGE[:8] + [1.0, 1.0], "lower", 0.25)["verdict"] == "unresolved"
    assert ab.summarize(PARENT[:9], CHANGE[:9], "lower", 0.25)["verdict"] == "unresolved"
    # a gap within the parent's IQR is not resolved either
    within = [x - 0.01 for x in PARENT]
    assert ab.summarize(PARENT, within, "lower", 0.25)["wins"] == 10
    assert ab.summarize(PARENT, within, "lower", 0.25)["verdict"] == "unresolved"
    # worse past the bound, in the metric's unit, but not up to it
    assert ab.summarize([40.6] * 10, [40.75] * 10, "lower", 0.1)["verdict"] == "worse"
    assert ab.summarize([40.6] * 10, [40.65] * 10, "lower", 0.1)["verdict"] == "unresolved"
    # higher is better: the same numbers the other way round
    s = ab.summarize(CHANGE, PARENT, "higher", 0.25)
    assert (s["wins"], s["verdict"]) == (10, "resolved gain")
    assert ab.summarize(PARENT, CHANGE, "higher", 0.25)["verdict"] == "worse"
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0], "lower", 0.1)


def test_every_traced_target_exists():
    # the tracer wraps each target by name at install, so a function renamed
    # or removed from the package would stop `perfbench/run.py --trace 1`
    tracing = _load("tracing", "perfbench")
    missing = [f"{module}.{name}" for module, name, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"polyiter.{module}"), name, None))]
    assert tracing.TARGETS and not missing
