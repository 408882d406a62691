"""Performance benchmark of the SAFE reproduction (see perfbench/README.md)."""
