"""Wall-clock benchmark of the repro transient stack (see README.md)."""
