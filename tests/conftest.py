"""Suite-wide hypothesis profile.

Property tests draw their examples from a fixed seed (``derandomize``), so
two trees are tested on the same inputs and a failure reproduces on every
run. No deadline: on a loaded two-core machine one example can take far
longer than the default 200 ms without anything being wrong.
"""

from hypothesis import settings

settings.register_profile("ftnet", derandomize=True, deadline=None)
settings.load_profile("ftnet")
