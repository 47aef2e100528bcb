"""The ``repro.api`` construction facade."""

import dataclasses

import pytest

from repro.api import SYSTEM_KINDS, SystemConfig, build_system
from repro.core.platform import M3Platform, M3vPlatform, M3xPlatform


def _small(kind):
    return SystemConfig(kind=kind, n_proc_tiles=2, n_mem_tiles=1)


# -- building -----------------------------------------------------------------

@pytest.mark.parametrize("kind,cls", [("m3v", M3vPlatform),
                                      ("m3", M3Platform),
                                      ("m3x", M3xPlatform)])
def test_build_system_tiled_kinds(kind, cls):
    system = build_system(_small(kind))
    assert type(system.impl) is cls
    assert system.kind == kind
    assert system.platform is system.impl
    assert system.sim is system.impl.sim
    # attribute fall-through: a System drops in wherever a plat was used
    assert system.controller is system.impl.controller
    assert system.now_us == system.impl.now_us


def test_build_system_linux_kind():
    from repro.linuxsim import LinuxMachine

    system = build_system(SystemConfig(kind="linux", with_net=True))
    assert type(system.impl) is LinuxMachine
    assert system.machine is system.impl
    assert system.sim is system.impl.sim


# -- the config object --------------------------------------------------------

def test_config_is_frozen():
    config = _small("m3v")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.kind = "m3x"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown system kind"):
        SystemConfig(kind="windows")
    assert set(SYSTEM_KINDS) == {"m3v", "m3", "m3x", "linux"}


# -- the legacy builders are gone ---------------------------------------------

def test_legacy_builders_removed():
    """The PR-4 ``build_m3v``/``build_m3``/``build_m3x`` shims are
    deleted; ``build_system`` is the only construction entry point."""
    import repro
    import repro.core
    import repro.core.platform as platform_mod

    for name in ("build_m3v", "build_m3", "build_m3x"):
        assert not hasattr(platform_mod, name)
        assert not hasattr(repro.core, name)
        with pytest.raises(AttributeError):
            getattr(repro, name)


# -- metrics must not perturb simulation --------------------------------------

@pytest.mark.golden
def test_fig6_golden_digest_unchanged_with_metrics_enabled():
    from repro.obs import capture_metrics
    from repro.testing.golden import digest, load_golden, record_trace

    with capture_metrics() as m:
        tracer = record_trace("fig6")
    assert digest(tracer) == load_golden("fig6")
    # and the metering actually happened
    assert m.counter_value("dtu/sends") > 0


@pytest.mark.golden
def test_fig8_golden_digest_unchanged_with_metrics_enabled():
    from repro.obs import capture_metrics
    from repro.testing.golden import digest, load_golden, record_trace

    with capture_metrics():
        tracer = record_trace("fig8")
    assert digest(tracer) == load_golden("fig8")
