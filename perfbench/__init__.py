"""Seeded end-to-end benchmark of the PILOTE pipeline (see README.md)."""
