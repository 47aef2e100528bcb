"""Fixture: triggers exactly REP003[facade-bypass]."""

from repro.core import build_m3v


def main():
    return build_m3v(n_proc_tiles=2)
