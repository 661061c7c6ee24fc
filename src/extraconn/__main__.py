"""Entry point for ``python -m extraconn``."""

from .cli import main

main(prog_name="extraconn")
