"""The package's namespace is its public API."""

import pkgutil
import types

import tdcodec


def test_the_package_names_are_all_its_submodules_and_its_version():
    # a name beside __all__ would be API that nobody declared
    submodules = {m.name for m in pkgutil.iter_modules(tdcodec.__path__)}
    public = {name for name in vars(tdcodec) if not name.startswith("_")}
    assert set(tdcodec.__all__) <= public
    extra = public - set(tdcodec.__all__)
    assert extra <= submodules, sorted(extra - submodules)
    assert all(isinstance(getattr(tdcodec, name), types.ModuleType) for name in extra)
    assert isinstance(tdcodec.__version__, str)
