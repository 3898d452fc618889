"""``python -m tensornorm``: the command line, as in :mod:`tensornorm.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
