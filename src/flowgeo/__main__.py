"""`python -m flowgeo`: the `flowgeo` command."""

from .cli import entry

entry()
