"""The span tracer in ``perfbench/spans.py`` wraps library functions by name
and reads some of their arguments; these tests keep the library's side of
that contract, so a rename or a signature change fails here and not only in
a traced benchmark run."""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_spans().TRACED


@pytest.mark.parametrize(
    "module_name,name",
    [(module_name, name) for module_name, names in TRACED.items() for name in names],
)
def test_traced_name_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


def test_advance_partition_steps_is_fourth_positional():
    # the move counter reads args[3] when steps is passed positionally
    from osmrank.sampler import advance_partition

    params = list(inspect.signature(advance_partition).parameters.values())
    assert params[3].name == "steps"
    assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_train_accepts_callback_keyword():
    # the block timer calls train(*args, callback=..., **kwargs)
    from osmrank.learning import train

    assert "callback" in inspect.signature(train).parameters
