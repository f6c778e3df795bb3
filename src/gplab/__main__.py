"""`python -m gplab`: the `gplab` command line of `gplab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
