"""`python -m splitfov`: the `splitfov` command."""

import sys

from .cli import main

sys.exit(main())
