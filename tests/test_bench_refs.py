"""The benchmark's reference outputs, ``perfbench/refs.json``, against this
tree.

The train-k10, eval-k10 and ais-n200 command lines of ``perfbench/run.py``
run on seed variants of the inputs that ``perfbench/inputs.py`` writes, and
``run.py``'s own readers and ``_compare_*`` checks judge the outputs: in
process on two variants, and on variant 0 as ``run.py`` times them too, as
``python -m osmrank.cli`` in a child with ``run.py``'s environment.  A change
that moves a benchmark output therefore fails here, and not only in a
benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from osmrank.cli import main

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
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


@pytest.fixture(scope="module")
def inputs(bench, tmp_path_factory):
    """The inputs of a variant, written once for the module."""
    made = {}

    def of(variant):
        if variant not in made:
            made[variant] = tmp_path_factory.mktemp(f"inputs-v{variant}")
            bench.inputs.make_inputs(str(made[variant]), variant)
        return made[variant]

    return of


def run_dir(path, workload, inputs):
    """A directory holding hard links to the workload's input files."""
    path.mkdir()
    for filename in workload.files:
        os.link(inputs / filename, path / filename)
    return path


@pytest.mark.parametrize("variant", VARIANTS)
def test_workload_outputs_match_the_references(bench, inputs, variant, tmp_path, monkeypatch, capsys):
    for name, workload in bench.WORKLOADS.items():
        where = run_dir(tmp_path / name, workload, inputs(variant))
        monkeypatch.chdir(where)
        assert main(workload.argv(variant)) == 0, capsys.readouterr().err
        got = workload.read(str(where))
        assert workload.compare(got, bench.refs[name][str(variant)]) == [], name


def test_timed_command_lines_match_the_references(bench, inputs, tmp_path):
    for name, workload in bench.WORKLOADS.items():
        where = run_dir(tmp_path / name, workload, inputs(0))
        argv = [sys.executable, "-m", "osmrank.cli", *workload.argv(0)]
        done = subprocess.run(argv, cwd=where, env=bench.child_env(SRC), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        got = workload.read(str(where))
        assert workload.compare(got, bench.refs[name]["0"]) == [], name
