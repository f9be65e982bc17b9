"""The names and fields the benchmark's tracer wraps and reads stay in place.

perfbench/tracing.py patches evanskit functions by name and reads step counts
off integrate_mode results; a rename or a dropped field would break
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from evanskit.evans import winding_count
from evanskit.integrator import integrate_mode
from evanskit.model import build_coupled_wave

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod   # its slotted dataclass looks itself up there
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_module_level_functions():
    tracing = _tracing()
    for name, (modname, attr) in tracing.TRACED.items():
        fn = getattr(importlib.import_module(modname), attr, None)
        assert inspect.isfunction(fn), name
        assert fn.__qualname__ == fn.__name__, name   # not nested or a method


def test_winding_count_keeps_edge_default():
    m = inspect.signature(winding_count).parameters["m_per_edge"].default
    assert m is not inspect.Parameter.empty
    assert _tracing().contour_initial_evals() == 4 * m


def test_integrate_mode_result_carries_step_counts():
    model, wave = build_coupled_wave(1.0)
    res = integrate_mode(model, wave, 0.0, 0.5, 3, "u", tol=1e-8)
    assert res.nsteps > 0 and res.nrejected >= 0
