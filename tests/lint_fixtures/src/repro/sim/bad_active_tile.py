"""Fixture: triggers exactly REP004[active-tile]."""


def pin(sim, tile):
    sim._active_tile = tile
