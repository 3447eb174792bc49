"""Setuptools entry point.

The declarative configuration lives in ``pyproject.toml``; this shim lets
``python setup.py develop`` make an editable install in offline environments
without the ``wheel`` package, which PEP 660 editable wheels need.
"""

from setuptools import setup

setup()
