"""Test-session set-up shared by every test module.

When a hypothesis test fails, hypothesis explains the failure with its
patch writer, `hypothesis.extra._patching`, imported on first use.  That
module imports `libcst`, whose use of `mypy_extensions.TypedDict` warns
with a DeprecationWarning; under `-W error` (as CI runs the suite) the
warning would be raised inside pytest's report hook and end the run in
an INTERNALERROR instead of printing the falsifying example.  Importing
the module once here, with that one warning ignored, keeps the report;
no warning filter stays in force while the tests run.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        # without libcst hypothesis writes no patch, and warns of nothing
        pass
