"""The benchmark's tracer (``perfbench/tracer.py``) finds every layer it
times: a refactor that moves or renames a wrapped attribute would make the
tracer report that layer's metrics absent instead of failing."""
import importlib

from rectlink import frontend
from test_frontend import _perfbench


def test_every_traced_attribute_resolves():
    tracer = _perfbench("tracer")
    for mod, cls, attr, _, _ in tracer.WRAPS:
        owner = importlib.import_module(mod)
        if cls:
            owner = getattr(owner, cls)
        assert hasattr(owner, attr), (mod, cls, attr)
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.absent() == {}
        # the counters read what the wrapped calls return
        for inst in _perfbench("workloads").base_pool("point-small")[20:40]:
            frontend.solve(inst)
        assert tr.absent() == {}
    finally:
        tr.uninstall()
