"""The benchmark's set-up probe, ``setup`` in ``perfbench/inproc.py``, loads
its inputs through the public loaders; these tests keep the library's side
of that contract, so a rename or a signature change fails here and not only
in a benchmark run."""

import importlib.util
import os
import random

import numpy as np
import pytest

from osmrank.learning import CFParams, cf_latent_model, save_checkpoint

INPROC = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inproc.py")


def load_inproc():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cf_latent_model_is_its_argument():
    p = CFParams.zeros(3, 2)
    assert cf_latent_model(p) is p


@pytest.mark.parametrize("with_ratings", [True, False])
def test_setup_probe_loads_its_inputs(tmp_path, monkeypatch, with_ratings):
    rng = random.Random(0)
    ratings = tmp_path / "ratings.dat"
    # 30 users with 25 half-star ratings each: every user passes the probe's 20-rating split
    ratings.write_text("".join(f"{u}::{i}::{0.5 * rng.randint(1, 10)}::0\n"
                               for u in range(30) for i in range(25)))
    checkpoint = tmp_path / "model.ck"
    params = CFParams.random_init(12, 3, np.random.default_rng(0))
    save_checkpoint(str(checkpoint), params)
    probed = []
    monkeypatch.setattr("osmrank.learning.cf_latent_model", lambda p: probed.append(p) or p)
    load_inproc().setup(0, str(ratings) if with_ratings else "-", str(checkpoint))
    assert len(probed) == (0 if with_ratings else 1)
    for p in probed:
        assert p.u.tobytes() == params.u.tobytes() and p.W.tobytes() == params.W.tobytes()
