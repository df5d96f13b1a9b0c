"""One version string: pyproject.toml, the package and README's record example agree."""

import re
from pathlib import Path

import cis

_ROOT = Path(__file__).resolve().parents[1]


def test_version_strings_agree():
    # a regex rather than tomllib, which Python 3.10 lacks
    project = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (declared,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    readme = re.findall(r'"version": "([^"]+)"', (_ROOT / "README.md").read_text(encoding="utf-8"))
    assert readme, "README has no JSON record example with a version"
    assert {declared, *readme} == {cis.__version__}
