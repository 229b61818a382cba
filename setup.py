"""Setuptools entry point.

The package is pure Python with NumPy as its only runtime dependency, so
it installs offline without build isolation: ``pip install -e .`` (or
``pip wheel --no-deps --no-build-isolation --no-index .``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="NumPy reproduction of MExI (Learning to Characterize Matching Experts)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
