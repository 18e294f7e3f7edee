"""`python -m chromroots ...`: the `chromroots` command without installing."""

import sys

from .cli import main

sys.exit(main())
