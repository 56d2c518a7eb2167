"""`python -m mice`: the `mice` command line."""

from .cli import main

if __name__ == "__main__":
    main()
