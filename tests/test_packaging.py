"""Packaging metadata: ``pyproject.toml`` takes the version from the package."""

from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_version_is_the_package_version():
    config = read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == repro.__version__
