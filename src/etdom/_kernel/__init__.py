"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ETDOM_BACKEND=pure or ETDOM_BACKEND=fast to force a backend
(forcing "fast" raises if the extension is missing).
"""

import os

from ._purecore import BudgetExceeded

_requested = os.environ.get("ETDOM_BACKEND", "")
if _requested not in ("", "fast", "pure"):
    raise RuntimeError(f"ETDOM_BACKEND must be 'fast' or 'pure', got {_requested!r}")

if _requested == "pure":
    from . import _purecore as _impl
else:
    try:
        from . import _fastcore as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _requested == "fast":
            raise
        from . import _purecore as _impl

BACKEND = _impl.BACKEND_NAME

canon = _impl.canon
max_clique = _impl.max_clique
maximal_cliques = _impl.maximal_cliques
clique_cover = _impl.clique_cover
dominating_sets = _impl.dominating_sets
domination_number = _impl.domination_number
guard_game = _impl.guard_game
augment = _impl.augment
screen = _impl.screen
SCREEN_TESTS = _impl.SCREEN_TESTS
MODE_ALL = _impl.MODE_ALL
MODE_TRIANGLE_FREE = _impl.MODE_TRIANGLE_FREE
