"""End-to-end and per-layer benchmark of poincount; see README.md."""
