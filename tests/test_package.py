"""The package namespace: every export loads lazily from its home module."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import jacverify


def test_every_export_is_the_object_of_its_home_module():
    # Every home module loads before any name is read: loading the submodule
    # jacverify.membership must not replace the exported function membership.
    homes = {name: import_module(f"jacverify.{module}")
             for name, module in jacverify._EXPORTS.items()}
    for name, home in homes.items():
        value = getattr(jacverify, name)
        assert value is getattr(home, name), name
        assert value.__module__ == home.__name__, name
    assert set(jacverify.__all__) <= set(dir(jacverify))
    assert jacverify.__version__ == "0.1.0"


def test_exports_are_bound_when_their_module_loads():
    """A later patch of a module attribute leaves the export, and the CLI call
    made through it, as the module defined them: the benchmark tracer wraps
    both membership.membership and cli.membership, and counts a member
    command once, as when the CLI imported every name eagerly."""
    src = os.path.dirname(os.path.dirname(jacverify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import importlib, jacverify, jacverify.cli\n"
             "home = importlib.import_module('jacverify.membership')\n"
             "original, home.membership = home.membership, None\n"
             "assert jacverify.membership is original\n"
             "code = jacverify.cli.main(['member', '--d', '1', '--n', '2', '--poly',\n"
             "                           'a[1,1]^2 + a[1,2]*a[2,1]'])\n"
             "raise SystemExit(code)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("member\n")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from jacverify import *", namespace)
    assert all(namespace[name] is getattr(jacverify, name) for name in jacverify.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jacverify.no_such_name
    assert not hasattr(jacverify, "no_such_name")
