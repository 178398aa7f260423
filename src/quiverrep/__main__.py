"""Run the command-line interface: ``python -m quiverrep ARGS``."""

from .cli import entry

if __name__ == "__main__":
    entry()
