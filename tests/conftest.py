"""Shared test configuration.

Every hypothesis property runs derandomized and without a deadline, so
the suite gives the same result on every run and machine; a property's
own ``@settings`` sets only its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("brightbeam", derandomize=True, deadline=None)
settings.load_profile("brightbeam")
