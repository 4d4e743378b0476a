"""The test settings in pyproject.toml let a failing property report itself."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # on a failure Hypothesis imports libcst to explain it; under the repo's
    # warning filters that import must not end the session with INTERNALERROR
    pytest.importorskip("libcst")
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_ten(n):\n"
        "    assert n < 10\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
