"""The package's error tree.

Every error slidekick raises is a :class:`SlidekickError` on one of two
branches.  A :class:`ConfigError` rejects an argument before any solve
starts (it is also a ``ValueError``); a :class:`NumericalFailure` is a
solve, fit or iteration that did not deliver.  The CLI exits 2 on the
first and 1 on the second; any other exception is a bug and propagates.
"""


class SlidekickError(Exception):
    pass


class ConfigError(SlidekickError, ValueError):
    pass


class NumericalFailure(SlidekickError):
    pass
