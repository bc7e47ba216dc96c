"""Crossbar runs with optional hooks attached are pinned byte for byte.

Thin pytest wrapper around ``tools/hook_digests.py``: every case (a
hook combination at n = 8 and n = 80, in the plain, metered and traced
modes, plus a traced C(4,4,4) fabric) must reproduce the row, trace and
OpenMetrics digests stored in ``tests/data/crossbar_hook_digests.json``.
After an intended behaviour change, regenerate the file with
``python tools/hook_digests.py --write tests/data/crossbar_hook_digests.json``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = ROOT / "tools" / "hook_digests.py"
STORED = json.loads(
    (ROOT / "tests" / "data" / "crossbar_hook_digests.json").read_text()
)


def load_tool():
    spec = importlib.util.spec_from_file_location("hook_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TOOL_MODULE = load_tool()


def test_every_stored_case_is_still_run():
    assert sorted(TOOL_MODULE.case_ids()) == sorted(STORED)


@pytest.mark.parametrize("case_id", TOOL_MODULE.case_ids())
def test_hook_digests_match(case_id):
    assert TOOL_MODULE.digest(case_id) == STORED[case_id]
