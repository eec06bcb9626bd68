"""``python -m muskatlab``: the command-line front end (see :mod:`muskatlab.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
