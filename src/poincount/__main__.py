"""Entry point for ``python -m poincount``."""

from .cli import main

if __name__ == "__main__":  # pragma: no cover
    main()
