"""The name-registry contract, pinned once for every registry.

Kernel backends, balancing strategies and cost models are each selected
by name through one :class:`repro.registry.Registry`; every case below
runs on all three, each with its own environment variable.
"""

import pytest

from repro.core.strategies import STRATEGIES
from repro.costmodel import COST_MODELS
from repro.registry import AUTO
from repro.solver.backends import BACKENDS

#: registry, its environment variable, and two registered names
REGISTRIES = {
    "backend": (BACKENDS, "REPRO_KERNEL_BACKEND", "fft", "sparse"),
    "strategy": (STRATEGIES, "REPRO_BALANCER", "tree", "greedy"),
    "cost_model": (COST_MODELS, "REPRO_COST_MODEL", "flat", "hierarchy"),
}


@pytest.fixture(params=sorted(REGISTRIES))
def reg(request, monkeypatch):
    registry, env_var, name, other = REGISTRIES[request.param]
    assert registry.env_var == env_var
    monkeypatch.delenv(env_var, raising=False)
    return registry, name, other


def _one_line_error(exc_info, *needles):
    msg = str(exc_info.value)
    assert "\n" not in msg
    for needle in needles:
        assert needle in msg


def test_auto_is_reserved(reg):
    registry, name, _ = reg
    with pytest.raises(ValueError, match="reserved"):
        registry.register(AUTO)(registry.get(name))
    assert AUTO not in registry.names()


def test_duplicate_registration_rejected(reg):
    registry, name, _ = reg
    cls = registry.get(name)
    with pytest.raises(ValueError, match="already registered"):
        registry.register(name)(type("Impostor", (), {}))
    assert registry.get(name) is cls


def test_unknown_explicit_name_rejected(reg):
    registry, _, _ = reg
    with pytest.raises(KeyError, match=f"unknown {registry.kind}"):
        registry.get("bogus")
    with pytest.raises(ValueError) as exc:
        registry.requested("bogus")
    _one_line_error(exc, f"unknown {registry.kind}", "'bogus'")


def test_unknown_env_value_rejected(reg, monkeypatch):
    registry, _, _ = reg
    monkeypatch.setenv(registry.env_var, "bogus")
    with pytest.raises(ValueError) as exc:
        registry.requested(AUTO)
    _one_line_error(exc, registry.env_var, "'bogus'")


def test_env_forces_auto_and_unset_leaves_it(reg, monkeypatch):
    registry, name, _ = reg
    assert registry.requested() == AUTO
    monkeypatch.setenv(registry.env_var, f" {name} ")
    assert registry.requested(AUTO) == name


def test_env_auto_is_no_override(reg, monkeypatch):
    registry, name, _ = reg
    monkeypatch.setenv(registry.env_var, AUTO)
    assert registry.requested(AUTO) == AUTO
    assert registry.requested(name) == name


def test_explicit_name_beats_env(reg, monkeypatch):
    registry, name, other = reg
    monkeypatch.setenv(registry.env_var, other)
    assert registry.requested(name) == name
