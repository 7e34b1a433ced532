"""`python -m dcflab`: the `dcflab` command."""

from .cli import main

if __name__ == "__main__":
    main()
