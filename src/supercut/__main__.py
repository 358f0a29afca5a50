"""``python -m supercut``: the command-line front end (see ``supercut.cli``)."""

from .cli import main

if __name__ == "__main__":
    main()
