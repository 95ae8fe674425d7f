"""``python -m repro`` entry point."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
