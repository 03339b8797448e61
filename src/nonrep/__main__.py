"""``python -m nonrep``: the ``nonrep`` command line (see ``cli``)."""

from .cli import main

main()
