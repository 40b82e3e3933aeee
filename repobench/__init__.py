"""Repository benchmark (see repobench/README.md)."""
