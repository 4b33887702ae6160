"""`python -m risjam`: the command-line harness."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
