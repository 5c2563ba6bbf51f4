"""``python -m etdom``: the etdom command line (see etdom.cli)."""

import sys

from .cli import main

sys.exit(main())
