"""`python -m pssframe`: the same command line as the `pssframe` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
