"""Hypothesis profiles for the whole suite.

``default`` keeps pull-request runs fast.  ``nightly`` searches 20x
deeper; select it with ``--hypothesis-profile=nightly``.  Tests that pin
their own ``max_examples`` keep it under either profile.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=20 * settings.default.max_examples)
