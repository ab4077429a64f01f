"""`python -m duinv`: the duinv command line (see duinv.cli)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
