"""Imports every ipflab module before the first test runs.

Hypothesis draws some examples from the constants of the local modules
loaded so far, so without this the contract sweep (tests/test_contract.py)
would draw other examples when a run also collects the tests that import
ipflab.cli.  Test modules are not read for constants.
"""

import importlib
import pkgutil

import ipflab

for module in pkgutil.iter_modules(ipflab.__path__):
    importlib.import_module(f"ipflab.{module.name}")
