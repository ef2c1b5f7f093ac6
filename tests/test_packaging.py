"""The project metadata resolves from the tracked ``pyproject.toml``."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_the_real_name_and_version():
    pytest.importorskip("setuptools")
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]
