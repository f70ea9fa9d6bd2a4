"""The package's namespace is its public API, and it loads its modules lazily."""

import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import tdcodec

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_package_names_are_all_its_submodules_and_its_version():
    # a name beside __all__ would be API that nobody declared; a name joins
    # the package's namespace when it is first used, so each is used first
    for name in tdcodec.__all__:
        getattr(tdcodec, name)
    submodules = {m.name for m in pkgutil.iter_modules(tdcodec.__path__)}
    public = {name for name in vars(tdcodec) if not name.startswith("_")}
    assert set(tdcodec.__all__) <= public
    extra = public - set(tdcodec.__all__)
    assert extra <= submodules, sorted(extra - submodules)
    assert all(isinstance(getattr(tdcodec, name), types.ModuleType) for name in extra)
    assert isinstance(tdcodec.__version__, str)


# run in a fresh interpreter: this one has imported every module already
_LAZY_PROBE = textwrap.dedent("""
    import importlib, sys

    def loaded():
        return sorted(m for m in sys.modules if m.partition(".")[0] == "tdcodec")

    import tdcodec
    assert loaded() == ["tdcodec"], loaded()
    assert set(dir(tdcodec)) >= set(tdcodec.__all__)
    import tdcodec.dictionary
    assert loaded() == ["tdcodec", "tdcodec.dictionary"], loaded()
    assert tdcodec.quantize is sys.modules["tdcodec.quantize"]
    try:
        tdcodec.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("tdcodec.no_such_name resolved")
    star = {}
    exec("from tdcodec import *", star)
    for module, names in tdcodec._EXPORTS.items():
        owner = importlib.import_module(f"tdcodec.{module}")
        for name in names:
            assert star[name] is getattr(owner, name), name
    assert set(star) - {"__builtins__"} == set(tdcodec.__all__)
""")


def test_the_package_loads_a_module_when_one_of_its_names_is_first_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _LAZY_PROBE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    # and in this process, where line tracers see them
    with pytest.raises(AttributeError, match="no_such_name"):
        tdcodec.no_such_name
    assert set(dir(tdcodec)) >= set(tdcodec.__all__)
