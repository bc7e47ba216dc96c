"""Start-up loads only what a run uses.

``repro`` and ``repro.analysis`` resolve their public names on first use
(PEP 562), and confidence intervals need no scipy. A fresh interpreter
that imports the package, runs a one-point Figure 12 sweep, computes a
t interval and imports every console script's module must not have
loaded scipy (a test-only dependency). The other tests check that the
lazy names behave as eager ones: each resolves, is listed by ``dir()``
and is bound by ``from … import *``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.analysis

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent


def console_modules() -> list[str]:
    """The modules of the ``[project.scripts]`` entry points."""
    text = (ROOT / "pyproject.toml").read_text()
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^\S+ = "([\w.]+):\w+"$', table, re.MULTILINE)


def test_a_sweep_and_every_console_script_load_no_scipy(tmp_path):
    modules = console_modules()
    assert len(modules) == 8, modules
    script = textwrap.dedent(
        f"""
        import importlib
        import sys

        import repro
        import repro.analysis.sweep as sweep
        from repro.analysis.stats import mean_ci

        config = repro.SimConfig(n_ports=4, warmup_slots=10, measure_slots=40, seed=3)
        spec = sweep.SweepSpec(
            schedulers=("lcf_central",), loads=(0.5,), config=config, replicates=2
        )
        result = sweep.run_sweep(spec, processes=1, cache={str(tmp_path / "cache")!r})
        assert len(result.rows()) == 1, result.rows()
        half = mean_ci([1.0, 2.0])[1]
        assert abs(half / (12.706204736174694 * 0.5) - 1) < 1e-9, half
        for module in {modules!r}:
            importlib.import_module(module)
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", [repro, repro.analysis], ids=lambda p: p.__name__)
def test_every_public_name_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("package", ["repro", "repro.analysis"])
def test_star_import_binds_every_public_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = sys.modules[package]
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("package", [repro, repro.analysis], ids=lambda p: p.__name__)
def test_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
