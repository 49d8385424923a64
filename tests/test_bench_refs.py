"""The benchmark's reference outputs, ``perfbench/refs.json``, against this
tree.

The train-k10, eval-k10 and ais-n200 command lines of ``perfbench/run.py``
run in process on two seed variants of the inputs that ``perfbench/inputs.py``
writes, and ``run.py``'s own readers and ``_compare_*`` checks judge the
outputs.  A change that moves a benchmark output therefore fails here, and
not only in a benchmark run.
"""

import importlib.util
import json
import os
import sys

import pytest

from osmrank.cli import main

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
VARIANTS = [0, 1]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)  # run.py imports inputs.py by its plain name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    with open(module.REFS) as fh:
        module.refs = json.load(fh)
    return module


@pytest.mark.parametrize("variant", VARIANTS)
def test_workload_outputs_match_the_references(bench, variant, tmp_path, monkeypatch, capsys):
    inputs = tmp_path / "inputs"
    bench.inputs.make_inputs(str(inputs), variant)
    for name, workload in bench.WORKLOADS.items():
        run_dir = tmp_path / name
        run_dir.mkdir()
        for filename in workload.files:
            os.link(inputs / filename, run_dir / filename)
        monkeypatch.chdir(run_dir)
        assert main(workload.argv(variant)) == 0, capsys.readouterr().err
        got = workload.read(str(run_dir))
        assert workload.compare(got, bench.refs[name][str(variant)]) == [], name
