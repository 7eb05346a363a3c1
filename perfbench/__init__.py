"""Seeded benchmark of the webtext extraction engine (see README.md)."""
