"""REP003 env-config: REPRO_* reads outside repro.sim.envcfg."""

import os


def shard_count():
    raw = os.environ.get("REPRO_SHARDS", "")
    return int(raw) if raw else 0


def strict():
    return os.environ["REPRO_SHARD_STRICT"] == "1"


def noc_batch():
    return os.getenv("REPRO_NOC_BATCH", "1") != "0"
