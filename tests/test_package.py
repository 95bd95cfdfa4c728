"""The package's exported names, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fareyloops


def test_every_export_is_its_defining_submodules_object():
    for name in fareyloops.__all__:
        module = importlib.import_module(f"fareyloops.{fareyloops._MODULE_OF[name]}")
        obj = vars(module)[name]
        assert obj.__module__ == module.__name__, name  # defined there, not re-exported
        assert getattr(fareyloops, name) is obj, name
        namespace = {}
        exec(f"from fareyloops import {name}", namespace)
        assert namespace[name] is obj, name


def test_dir_lists_every_export():
    listed = dir(fareyloops)
    assert set(fareyloops.__all__) <= set(listed)
    assert "__all__" in listed and "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fareyloops.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from fareyloops import no_such_name", {})
    assert not hasattr(fareyloops, "_scan")


def test_a_submodule_is_still_importable_by_name():
    namespace = {}
    exec("from fareyloops import heights, sampling", namespace)
    assert namespace["heights"] is importlib.import_module("fareyloops.heights")
    assert namespace["sampling"] is importlib.import_module("fareyloops.sampling")


def test_a_resolved_name_is_not_cached_in_the_package():
    # a caller that rebinds a submodule's name, and later restores it, is seen by the package
    from fareyloops import loops

    original = loops.loop_exists
    fareyloops.loop_exists  # noqa: B018
    assert "loop_exists" not in vars(fareyloops)
    try:
        loops.loop_exists = stand_in = lambda n: True
        assert fareyloops.loop_exists is stand_in
    finally:
        loops.loop_exists = original
    assert fareyloops.loop_exists is original


def test_importing_the_package_loads_no_submodule():
    script = "import sys, fareyloops; print(*sorted(m for m in sys.modules if m.startswith('fareyloops')))"
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(fareyloops.__file__).parents[1])},
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.split() == ["fareyloops"]
