"""`python -m periodalg ...` runs the command line, as `periodalg ...` does."""

import sys

from .cli import main

sys.exit(main())
