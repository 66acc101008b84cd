"""Reference-normalised benchmark of the reproduction (see README.md)."""
