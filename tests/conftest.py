"""Shared test settings.

Property tests run under one hypothesis profile: a fixed example sequence
(the same examples on every run) and no per-example deadline, so a slow
or busy machine cannot turn a correct example into a failure.
"""

from hypothesis import settings

settings.register_profile("lambda_mb", derandomize=True, deadline=None)
settings.load_profile("lambda_mb")
