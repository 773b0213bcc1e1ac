"""Seeded benchmark of the beacon -> occupancy pipeline."""
