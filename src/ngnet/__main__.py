"""``python -m ngnet``: the same command line as the ``ngnet`` script."""

import sys

from .cli import main

sys.exit(main())
