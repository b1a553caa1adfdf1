"""End-to-end and per-layer benchmark for gnwlab (see bench/README.md)."""
