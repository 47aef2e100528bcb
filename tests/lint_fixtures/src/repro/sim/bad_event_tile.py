"""Fixture: triggers exactly REP004[event-tile-store]."""


def restamp(event, lane):
    event.home_tile = lane
    return event
