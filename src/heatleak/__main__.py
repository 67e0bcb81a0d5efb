"""``python -m heatleak``: the same command line as the ``heatleak`` script."""

import sys

from .cli import main

sys.exit(main())
