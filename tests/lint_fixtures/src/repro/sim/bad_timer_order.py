"""Fixture: triggers exactly REP001[unordered-iter]."""


def arm_all(sim, deadlines, callback):
    # one timer per dict entry, armed in insertion order: the timers'
    # queue positions follow the dict's history
    for name, delay in deadlines.items():
        sim.timer(delay, name, callback)
