"""``python -m adaptgraph``: the command line of :mod:`adaptgraph.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
