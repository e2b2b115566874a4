"""The vtalarm benchmark; see run.py."""
