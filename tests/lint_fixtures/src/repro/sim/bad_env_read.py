"""REP003 env-config: REPRO_* reads outside repro.sim.envcfg."""

import os


def checked():
    return os.environ.get("REPRO_SHARDS", "") == "1"


def handicap():
    return os.environ["REPRO_BENCH_HANDICAP_S"]


def noc_batch():
    return os.getenv("REPRO_NOC_BATCH", "1") != "0"
