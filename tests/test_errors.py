import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import slidekick
from slidekick.errors import ConfigError, NumericalFailure, SlidekickError

SRC = Path(slidekick.__file__).parent


def test_every_error_on_one_branch():
    # the CLI maps ConfigError to exit 2 and NumericalFailure to exit 1, so
    # each error the package defines must sit on exactly one of the branches
    errors = []
    for info in pkgutil.iter_modules([str(SRC)]):
        module = importlib.import_module(f"slidekick.{info.name}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    roots = [cls for cls in errors if Exception in cls.__bases__]
    assert roots == [SlidekickError]
    leaves = [cls for cls in errors if cls not in (SlidekickError, ConfigError, NumericalFailure)]
    assert len(leaves) > 20
    for cls in leaves:
        assert issubclass(cls, ConfigError) != issubclass(cls, NumericalFailure), cls


def test_cli_config_error_is_the_package_one():
    from slidekick.cli import ConfigError as CliConfigError

    assert CliConfigError is ConfigError


def test_no_catch_all_handlers_in_src():
    # a programming error must propagate, not be reported as a failure
    catch_all = re.compile(r"except\s*:|except\s*\(?[^:]*\b(BaseException|Exception|TypeError)\b")
    hits = [f"{p.name}:{n}" for p in sorted(SRC.glob("*.py"))
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if catch_all.search(line)]
    assert hits == []
