"""`python -m bsbimod ...`: the command line of `bsbimod.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
