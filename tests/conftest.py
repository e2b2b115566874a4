import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# On a failing example Hypothesis's pytest plugin imports this module, which
# pulls in libcst, whose import warns through mypy_extensions. Under
# pyproject's error::DeprecationWarning that warning would end the whole run
# with an INTERNALERROR, so the module is imported here first, warnings off.
# Without libcst the plugin skips the module, and so does this import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
