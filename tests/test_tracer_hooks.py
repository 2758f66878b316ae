"""Every name the benchmark's tracer wraps exists in ``lammsc``.

``perfbench/layers.py``'s ``Tracer.install`` skips a name it cannot find, so
a refactor that drops or renames one would read 0 in its per-layer metrics
without failing any run. These tests read the benchmark's list and leave
the benchmark as it is.
"""

import importlib
import importlib.util
import pathlib

from lammsc import mockserve, nn, wire
from lammsc.mockserve import MockServer
from lammsc.wire import Endpoint, post_json

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def tracer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.FUNCTIONS


def test_every_wrapped_function_resolves():
    functions = tracer_functions()
    assert functions
    missing = [f"{module}.{attr}" for module, attr in functions
               if not callable(getattr(importlib.import_module(f"lammsc.{module}"),
                                       attr, None))]
    assert missing == []


def test_patched_attributes_exist():
    for owner, attr in ((mockserve._Handler, "do_POST"), (wire.requests, "post"),
                        (nn.Sequential, "forward"), (nn.Sequential, "backward")):
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr}"


def test_patched_do_post_sees_every_request(monkeypatch):
    """The tracer's mockserve.handle span wraps the class attribute, so the
    request loop must look do_POST up on the handler for each request."""
    calls = []
    do_post = mockserve._Handler.do_POST

    def counting(self):
        calls.append(self.path)
        return do_post(self)

    monkeypatch.setattr(mockserve._Handler, "do_POST", counting)
    with MockServer() as srv:
        ep = Endpoint(srv.url, retries=0)
        for text in ("a", "b", "c"):
            post_json(ep, "/personalize", {"prompt": f"task\nText:\n{text}"})
    assert calls == ["/personalize"] * 3
