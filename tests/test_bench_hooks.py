"""The benchmark's tracer wraps package functions by name (bench/tracer.py).

A refactor that renames or removes one of them would only show when a traced
benchmark run fails, so installing and uninstalling the hooks is checked here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_install_then_uninstall_restores_every_hook(tracing):
    from mice import trainer
    from mice.data import SyntheticSpec, generate

    t = tracing.Tracer()
    tracing.install(t)
    hooks = list(t._installed)  # (owner, attribute, original)
    try:
        assert hooks and all(owner.__dict__[attr] is not orig for owner, attr, orig in hooks)
        cfg = trainer.TrainConfig(
            seed=1, num_clusters=3, embed_dim=4, hidden_widths=(5,), queue_size=8,
            batch_size=8, epochs=1,
        )
        ds = generate(SyntheticSpec(3, 4, 4, 15.0, seed=2))
        state, _ = trainer.fit(cfg, ds)
        trainer.evaluate(state, ds)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in hooks)
    names = {s.name for s in t.spans}
    for fn in ("augment", "backward", "add_bundles", "ema_update", "forward_student",
               "forward_teacher", "forward_gating"):
        assert f"encoder.{fn}" in names
    assert [s.count for s in t.spans if s.name == "trainer.train_step"] == [8, 4]
