"""Test-session set-up."""

import contextlib
import warnings

# When a Hypothesis test fails, Hypothesis's pytest plugin imports this module
# to write the falsifying example, and its dependencies (libcst,
# mypy_extensions) raise DeprecationWarning on import. Under the `error`
# warning filter that import would fail and pytest would report INTERNALERROR
# instead of the example, so it is imported once here with that warning
# ignored. The filter still applies to everything the tests run.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
