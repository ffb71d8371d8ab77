"""`python -m ckstar`: the `ckstar` command."""

from .cli import console_main

console_main()
