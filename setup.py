"""Setup shim for environments without PEP 517 editable-install support."""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the fleet kernel's native run, compiled on first use (repro.core._native)
    package_data={"repro.core": ["*.c"]},
)
