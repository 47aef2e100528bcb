"""The content-addressed cache: key stability and invalidation.

Hypothesis properties pin the canonicalization contract — dict
insertion order never matters, ``1`` and ``1.0`` key identically,
configs survive JSON/``asdict`` round-trips — and that any actual
value change always produces a different key.  The invalidation test
edits a (copied) extra fingerprint input and checks that exactly the
affected sweep re-simulates while the other sweep's points are served
from cache.  The code fingerprint covers every source file of the
package and the ``REPRO_*`` environment, so neither a simulator edit
nor ``REPRO_NOC_BATCH=0`` can be served a stale result.
"""

import dataclasses
import json
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.runner import (
    ResultCache,
    Runner,
    Sweep,
    cache_key,
    canonical_json,
    file_fingerprint,
    register,
    unregister,
)
from repro.runner.points import PointSpec, point_seed

# -- canonical-JSON properties ------------------------------------------------

# ±2**40 keeps ints exactly representable as floats, so the int/float
# equivalence property is well defined
small_ints = st.integers(-2**40, 2**40)
scalars = st.one_of(st.none(), st.booleans(), small_ints,
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=8))
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=6),
       st.randoms())
@settings(max_examples=60, deadline=None)
def test_key_ignores_dict_insertion_order(d, rnd):
    items = list(d.items())
    rnd.shuffle(items)
    assert canonical_json(dict(items)) == canonical_json(d)


@given(small_ints)
@settings(max_examples=60, deadline=None)
def test_int_and_integral_float_key_identically(i):
    assert canonical_json({"v": i}) == canonical_json({"v": float(i)})
    assert canonical_json([i]) == canonical_json([float(i)])


@given(small_ints, small_ints)
@settings(max_examples=60, deadline=None)
def test_changing_a_value_changes_the_key(a, b):
    assume(a != b)
    assert canonical_json({"x": a}) != canonical_json({"x": b})


@given(st.booleans())
@settings(max_examples=10, deadline=None)
def test_bool_is_not_confused_with_int(flag):
    assert canonical_json({"v": flag}) != canonical_json({"v": int(flag)})


@dataclass(frozen=True)
class InnerCfg:
    a: int
    b: float


@dataclass(frozen=True)
class OuterCfg:
    name: str
    inner: InnerCfg
    ks: tuple


@given(st.text(max_size=8), small_ints,
       st.floats(allow_nan=False, allow_infinity=False),
       st.lists(small_ints, max_size=4))
@settings(max_examples=60, deadline=None)
def test_nested_config_round_trip_keeps_key(name, a, b, ks):
    cfg = OuterCfg(name=name, inner=InnerCfg(a=a, b=b), ks=tuple(ks))
    d = dataclasses.asdict(cfg)
    rebuilt = OuterCfg(name=d["name"], inner=InnerCfg(**d["inner"]),
                       ks=tuple(d["ks"]))
    assert canonical_json(cfg) == canonical_json(rebuilt)
    # the plain-dict form (a JSON round-trip of the config) keys
    # identically too: dataclasses canonicalize to their field dicts
    assert canonical_json(cfg) == canonical_json(d)


@given(small_ints, small_ints)
@settings(max_examples=40, deadline=None)
def test_cache_key_changes_with_any_config_field(a, b):
    assume(a != b)
    spec_a = PointSpec("s", 0, InnerCfg(a=a, b=0.5), point_seed("s", 0))
    spec_b = PointSpec("s", 0, InnerCfg(a=b, b=0.5), point_seed("s", 0))
    assert cache_key(spec_a, "fp") != cache_key(spec_b, "fp")
    # ... and with the code fingerprint and the trace namespace
    assert cache_key(spec_a, "fp") != cache_key(spec_a, "fp2")
    assert cache_key(spec_a, "fp") != cache_key(spec_a, "fp", trace=True)


# -- invalidation: editing a fingerprint input re-runs only its sweep ---------

@dataclass(frozen=True)
class ToyCfg:
    idx: int


RUNS = []


def _toy_point_a(cfg):
    RUNS.append(("a", cfg.idx))
    return {"v": cfg.idx * 10}


def _toy_point_b(cfg):
    RUNS.append(("b", cfg.idx))
    return {"v": cfg.idx * 100}


def _toy_points():
    return [ToyCfg(i) for i in range(3)]


def _toy_reduce(_points, values):
    return values


@pytest.fixture
def toy_sweeps(tmp_path):
    costs_a = tmp_path / "costs_a.py"
    costs_b = tmp_path / "costs_b.py"
    costs_a.write_text("RPC_CYCLES = 5000\n")
    costs_b.write_text("RPC_CYCLES = 5000\n")
    register(Sweep("toy-a", _toy_points, _toy_point_a, _toy_reduce,
                   fingerprint_paths=(str(costs_a),)))
    register(Sweep("toy-b", _toy_points, _toy_point_b, _toy_reduce,
                   fingerprint_paths=(str(costs_b),)))
    RUNS.clear()
    yield costs_a, costs_b
    unregister("toy-a")
    unregister("toy-b")


def test_fingerprint_edit_invalidates_only_affected_points(toy_sweeps,
                                                           tmp_path):
    costs_a, _ = toy_sweeps
    root = tmp_path / "cache"

    cold = Runner(jobs=1, cache=ResultCache(root=root))
    cold.run_sweep("toy-a")
    cold.run_sweep("toy-b")
    assert cold.simulated == 6 and cold.served == 0
    assert cold.cache_misses == 6 and cold.cache_hits == 0

    warm = Runner(jobs=1, cache=ResultCache(root=root))
    a = warm.run_sweep("toy-a")
    b = warm.run_sweep("toy-b")
    assert warm.simulated == 0 and warm.served == 6
    assert warm.cache_hits == 6 and warm.cache_misses == 0
    assert a == [{"v": 0}, {"v": 10}, {"v": 20}]
    assert b == [{"v": 0}, {"v": 100}, {"v": 200}]

    # rewrite one constant in sweep A's (copied) cost-model input
    costs_a.write_text("RPC_CYCLES = 6000\n")
    RUNS.clear()
    after = Runner(jobs=1, cache=ResultCache(root=root))
    after.run_sweep("toy-a")
    after.run_sweep("toy-b")
    assert after.simulated == 3 and after.served == 3
    assert after.cache_hits == 3 and after.cache_misses == 3
    assert RUNS == [("a", 0), ("a", 1), ("a", 2)]   # b never re-ran

    # the new entries are cached under the new fingerprint
    final = Runner(jobs=1, cache=ResultCache(root=root))
    final.run_sweep("toy-a")
    final.run_sweep("toy-b")
    assert final.simulated == 0 and final.served == 6


def test_refresh_ignores_entries_but_rewrites_them(toy_sweeps, tmp_path):
    root = tmp_path / "cache"
    Runner(jobs=1, cache=ResultCache(root=root)).run_sweep("toy-a")

    refresh = Runner(jobs=1, cache=ResultCache(root=root, refresh=True))
    refresh.run_sweep("toy-a")
    assert refresh.simulated == 3 and refresh.served == 0

    warm = Runner(jobs=1, cache=ResultCache(root=root))
    warm.run_sweep("toy-a")
    assert warm.simulated == 0 and warm.served == 3


def test_warm_run_serializes_like_the_cold_one(tmp_path):
    """A served value keeps the key order its point function built, so
    a results file written from a warm cache is byte-identical to the
    cold run's (figR's rows are not in sorted key order)."""
    from repro.core.exps.plans import PLANS

    (points,) = [points for sweep, _, points in PLANS["quick"]
                 if sweep == "figR"]
    dumps = []
    for _ in range(2):
        runner = Runner(jobs=1, cache=ResultCache(root=tmp_path / "cache"))
        dumps.append(json.dumps({"figR": runner.run_sweep("figR", points)},
                                indent=2, default=str))
    assert runner.served == len(points)
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("observe", ["metrics", "profile"])
def test_runner_refuses_a_cache_when_observing(observe, tmp_path):
    """A metered or profiled run always simulates: the cache stores
    results only, so a served point would have nothing to observe."""
    with pytest.raises(ValueError):
        Runner(cache=ResultCache(root=tmp_path / "cache"), **{observe: True})
    assert getattr(Runner(**{observe: True}), observe)


def test_file_fingerprint_tracks_content(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("X = 1\n")
    before = file_fingerprint([str(f)])
    assert before == file_fingerprint([str(f)])
    f.write_text("X = 2\n")
    assert file_fingerprint([str(f)]) != before


# -- the code fingerprint: every package source and the REPRO_* env -----------

def _fig9_key() -> str:
    from repro.core.exps.fig9 import fig9_points
    from repro.runner import make_specs

    spec = make_specs("fig9", fig9_points(tile_counts=[2]))[0]
    return cache_key(spec, Runner(jobs=1)._fingerprint("fig9"))


def test_noc_batch_env_changes_a_fig9_key(monkeypatch):
    monkeypatch.delenv("REPRO_NOC_BATCH", raising=False)
    batched = _fig9_key()
    monkeypatch.setenv("REPRO_NOC_BATCH", "1")
    assert _fig9_key() != batched      # the raw value, not its meaning
    monkeypatch.setenv("REPRO_NOC_BATCH", "0")
    per_hop = _fig9_key()
    assert per_hop != batched
    assert _fig9_key() == per_hop


def test_editing_a_simulator_module_changes_the_fingerprint(monkeypatch,
                                                            tmp_path):
    import shutil

    from repro.runner import cache

    root = tmp_path / "repro"
    shutil.copytree(cache.PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache, "PACKAGE_ROOT", root)
    before = Runner(jobs=1)._fingerprint("fig6")
    assert Runner(jobs=1)._fingerprint("fig6") == before
    params = root / "dtu" / "params.py"
    params.write_text(params.read_text() + "\n# edited\n")
    assert Runner(jobs=1)._fingerprint("fig6") != before
