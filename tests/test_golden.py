"""Golden digests of seeded CLI outputs.

Each case runs ``osmrank.cli.main(argv)`` in process on small inputs made
here from fixed seeds with numpy and the standard library only, then checks
the sha256 of every output file against the table below.  A change that
shifts a seeded stream, a float's rounding or an output format fails here,
where the determinism tests (two runs of the same tree) pass.  Paths are
relative to the input directory, because reports name their input files.

Regenerating the table is a declared output change; ``python
tests/test_golden.py`` (with ``src`` on the path) prints it for the current
tree.  The inputs come from numpy's ``Generator``, whose streams numpy does
not promise to keep across releases.

BLAS: numpy's OpenBLAS (0.3.31, built ``DYNAMIC_ARCH``) picks its kernels
by CPU, or by ``OPENBLAS_CORETYPE``.  The unit weights ``coef @ W[items]``
go through its gemv, and the last bit of a sum depends on the kernel.  On an
AVX-512 Xeon (kernel SkylakeX), rerunning every case with the core type set
to Haswell, Sandybridge, Nehalem or Prescott changed the bytes of five
outputs by at most 6.2e-16 relative: the checkpoint of ``train`` K=3, the
three ``estimate-z --model`` reports (linear only under Sandybridge and
Prescott) and ``oracle --exact-z --marginals --model``.  Every train log,
the K=0 and ``--uniform`` outputs, the eval reports (ranking makes no BLAS
call) and both sample dumps kept their bytes: no accept decision flipped.
Those five outputs are pinned in ``VALUES`` instead: the text with each
float masked by digest, and the floats to 1e-9 relative.  One test reruns
the table in a subprocess under the Prescott kernels, pinned to one CPU so
that ``estimate-z`` runs its AIS runs in one process there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from osmrank.cli import main

N_USERS = 120
N_ITEMS = 60
RATINGS_PER_USER = (34, 56)


def write_ratings(path: str, seed: int) -> int:
    """A ``::`` ratings file from a small low-rank taste model with per-item
    bias; returns the number of items left after the entropy filter."""
    rng = np.random.default_rng([seed, 1])
    bias = rng.normal(0.0, 1.0, N_ITEMS) * rng.uniform(0.2, 1.5, N_ITEMS)
    item_f = rng.normal(0.0, 0.6, (N_ITEMS, 2))
    user_f = rng.normal(0.0, 0.6, (N_USERS, 2))
    lines = []
    rated = np.zeros(N_ITEMS, dtype=bool)
    for user in range(N_USERS):
        count = int(rng.integers(RATINGS_PER_USER[0], RATINGS_PER_USER[1] + 1))
        items = rng.choice(N_ITEMS, size=count, replace=False)
        raw = 3.0 + bias[items] + item_f[items] @ user_f[user] + rng.normal(0.0, 0.7, count)
        stars = np.clip(np.round(raw * 2.0) / 2.0, 0.5, 5.0)
        rated[items] = True
        lines.extend(f"{user + 1}::{it + 1}::{r:g}::{978300000 + user}"
                     for it, r in zip(items.tolist(), stars.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    n_items = int(rated.sum())
    return n_items - n_items // 2


def write_checkpoint(path: str, rng: np.random.Generator, n_items: int, n_hidden: int) -> None:
    """A random checkpoint in the osmrank text format (version 1)."""
    u, W = rng.normal(0.0, 0.5, n_items), rng.normal(0.0, 0.3, (n_items, n_hidden))
    lines = ["osmrank-checkpoint 1", f"n_items {n_items}", f"K {n_hidden}",
             f"nu {float(rng.normal(-0.5, 0.1))!r}", "u " + " ".join(repr(v) for v in u.tolist())]
    lines.extend("W " + " ".join(repr(v) for v in row) for row in W.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(directory: str) -> None:
    n_items = write_ratings(os.path.join(directory, "ratings.dat"), seed=0)
    rng = np.random.default_rng([0, 2])
    write_checkpoint(os.path.join(directory, "eval2.ck"), rng, n_items, 2)
    write_checkpoint(os.path.join(directory, "eval5.ck"), rng, n_items, 5)
    write_checkpoint(os.path.join(directory, "ais.ck"), rng, 14, 3)
    write_checkpoint(os.path.join(directory, "small.ck"), rng, 5, 2)


DATA = ["--data", "ratings.dat"]
AIS = ["--n-temps", "25", "--n-runs", "3", "--seed", "4"]

# case -> (argv, output files)
CASES = {
    "train-k0": (["train", *DATA, "--hidden", "0", "--epochs", "2", "--seed", "1",
                  "--out", "k0.ck", "--log", "k0.log"], ["k0.ck", "k0.log"]),
    "train-k3": (["train", *DATA, "--hidden", "3", "--block", "37", "--chain-steps", "2",
                  "--l2", "0.01", "--seed", "2", "--out", "k3.ck", "--log", "k3.log"],
                 ["k3.ck", "k3.log"]),
    "eval": (["eval", *DATA, "--model", "eval2.ck", "eval5.ck", "--metrics", "ndcg@1,ndcg@5,err",
              "--seed", "3", "--out", "eval.txt", "--per-user", "per_user.txt",
              "--sweep-out", "sweep.tsv"], ["eval.txt", "per_user.txt", "sweep.tsv"]),
    "estimate-z-linear": (["estimate-z", "--model", "ais.ck", *AIS, "--out", "z_linear.txt"],
                          ["z_linear.txt"]),
    "estimate-z-geometric": (["estimate-z", "--model", "ais.ck", *AIS, "--schedule", "geometric",
                              "--out", "z_geometric.txt"], ["z_geometric.txt"]),
    "estimate-z-inner-steps": (["estimate-z", "--model", "ais.ck", *AIS, "--inner-steps", "3",
                                "--out", "z_inner.txt"], ["z_inner.txt"]),
    "estimate-z-uniform": (["estimate-z", "--uniform", "--n", "30", *AIS, "--out", "z_uniform.txt"],
                           ["z_uniform.txt"]),
    "sample-model": (["sample", "--model", "ais.ck", "--steps", "60", "--thin", "6", "--seed", "5",
                      "--out", "sample_model.txt"], ["sample_model.txt"]),
    "sample-uniform": (["sample", "--uniform", "--n", "7", "--steps", "400", "--thin", "8",
                        "--seed", "6", "--out", "sample_uniform.txt"], ["sample_uniform.txt"]),
    "oracle-count-enumerate": (["oracle", "--n", "4", "--count", "--enumerate",
                                "--out", "oracle_enum.txt"], ["oracle_enum.txt"]),
    "oracle-exact-z-marginals": (["oracle", "--n", "5", "--model", "small.ck", "--exact-z",
                                  "--marginals", "--out", "oracle_z.txt"], ["oracle_z.txt"]),
}

DIGESTS = {
    ("estimate-z-uniform", "z_uniform.txt"): "a41994b62e0d7eb9a855625f689d6c68e172054d5069db08916f880b3d2c0c4f",
    ("eval", "eval.txt"): "522bb24dfdc19727b3ba6976f72382eef3c54bbfb83543dcceef01de41c915dd",
    ("eval", "per_user.txt"): "eedfa7e46bdd0d8e6a53f882ceb0c39495e05d929ca36236b4bf5606d8f2360c",
    ("eval", "sweep.tsv"): "8db4bdf826eb76d753f4d4b7210daf4c185e142b5a8d4b09d3153d3bf659d7a0",
    ("oracle-count-enumerate", "oracle_enum.txt"): "f760df91ed85e22796aeae5b6478bd4abc931e72060b65e65543c1d35249b33f",
    ("sample-model", "sample_model.txt"): "034fde103d64cc2b49a66d173351047e3246e882665877ae6c5937d1bff13b59",
    ("sample-uniform", "sample_uniform.txt"): "39e0917843008114db2d2ace87c33883ba364fe4781a7f8f707b0f54476a8f8c",
    ("train-k0", "k0.ck"): "583b317acaeeced629e75ab6d8f4019b10e3d678b24f03096b9669046ef8a4fa",
    ("train-k0", "k0.log"): "3f98f3436a889934f24d304d8f43b4abbb91b75a3a64f1c998b21979ee4498d4",
    ("train-k3", "k3.log"): "c41ff0005db291a693e1d7ecafcd5dd04a864b23abbbf168ae0bc333e58d4f33",
}

# Outputs whose last bits follow the BLAS kernel (see the module docstring):
# (case, file) -> (sha256 of the text with each float replaced by "#", the floats)
VALUES = {
    ("estimate-z-geometric", "z_geometric.txt"): (
        "e33f850cdb0aa02ef3ef96fa3d27a008e8fa40a7a4041ad6e7d93f39e90a6b0f",
        """
        85.43636982511123 32.07520935258353 1.000027349260361 54.45975908665936
        36.580037139119575 43.2585339396166
        """,
    ),
    ("estimate-z-inner-steps", "z_inner.txt"): (
        "81821bc8ca5478ee98e0ae3d445166d530aaa8e57c723c08ccac25d47da3ed28",
        """
        84.53096409157308 32.07520935258353 1.0000000434180842 53.55436700594862
        23.16855175249952 35.908827046768444
        """,
    ),
    ("estimate-z-linear", "z_linear.txt"): (
        "81821bc8ca5478ee98e0ae3d445166d530aaa8e57c723c08ccac25d47da3ed28",
        """
        85.77367490133682 32.07520935258353 1.0000000655500423 54.79707780464638
        29.816568653981555 37.56304648440227
        """,
    ),
    ("oracle-exact-z-marginals", "oracle_z.txt"): (
        "1acad0fd927d46c2e067dd9fefefa88d51fb2d2558b2181d224f68411fe0afc3",
        """
        9.339486187085047 0.6967201169557574 0.3775615565608213 0.448388672727485
        0.253811992310759 0.24456351952776748 0.1700428732297116 0.22645444696985054
        0.09010103977182407 0.5678579621018324 0.785023648125591 0.5455140742283635
        0.3327322228572697 0.4936470169619453 0.7181340085981034 0.3986938921732209
        0.2714758879967612 0.6951657004341755 0.8802207349427303 0.6018831277995689
        0.674584889290293 0.05871636351647539 0.05458048133734663 0.057964310310569415
        0.05102230725506545 0.04493347864469762 0.055411544432046315 0.029678225285446107
        0.05579203359841548 0.06538464934316161 0.053939222712946086
        """,
    ),
    ("train-k3", "k3.ck"): (
        "144284544eb2192f308fa2470e312f53de4ab593f103548574be14de74ea7039",
        """
        -0.5031892004473203 -0.006330743713642596 -0.006720392716104149 0.007447822072904979
        -0.0022705057962868745 -0.010937187019781884 -0.004611201573460519
        0.011531349981774422 0.009109489745021312 -0.0008202821394162876
        0.0011941498438474405 0.003251708354974254 -0.00807360727816106 0.00619455655169741
        0.0028054456066122745 -0.002437701867288665 -0.005670513998338607
        -0.004294754273059177 0.01345693913584232 0.014901332512981574 -0.009787489583382901
        -0.007193533678745062 -0.004366961713598601 -0.0011591892283006624
        0.0069914009119212165 0.002649603331485233 -0.004092316941904621
        -0.0012267708216456615 -0.010125722884430099 -0.0161997630835568
        0.0036626631961913453 -0.005744133091499239 -0.003984660786860337
        0.002802367101535078 -0.012672547649026498 -0.007061786603513413
        0.0015319674453006594 -0.01211857395692192 -0.00535327435519961 0.004128837171383394
        -0.007099026306208803 -0.0018224742466206399 -0.0039053088270216575
        -0.014469225562425471 -0.015681065023718216 -0.014540882767566706
        -0.0017938411320929252 -0.0008923090859805673 0.0016645320972317888
        -0.00772805445439403 0.006826292610766288 -0.00045993224131356605
        -0.016206449798090623 -0.008100890942955038 0.0010364631477413652
        -0.004727520041608493 -0.009316851678381973 -0.014652624437306444
        -0.002446583339641494 -0.0032375959734040737 -0.004338636266181317
        -0.0015339586244286893 -0.0012802378414219996 -0.0017069798386015634
        -0.011943936069694268 -0.003139931974857019 0.0012109128403654315
        0.008671162650816164 0.007682550752042201 -0.0016600431050813702
        -0.006027188954307699 0.0055353840644544235 0.0014428715250307126
        -0.00997080677515311 -0.006923813888078806 -0.006955523477816153
        -0.008451970870643118 -0.004312056199705979 0.00201279410937691
        -0.00019988474650207456 -0.01290469905884568 0.008367156379058709
        -0.005604972951626707 -0.0018567068987399486 -0.0017523853572773015
        0.002647049494580436 -0.0014871196565724755 0.006894198752452592
        -0.005134589404711117 0.004672030085369042 -0.011997179129553533
        -0.00597465398464204 -0.0012445552551429233 -0.01878228216374384
        -0.011513524927635558 -0.014968436769552994 -0.003024861358102941
        -0.009073759436564927 0.006427985982909753 -0.0022356386369644845
        -0.0020933561656163342 -0.011163706069425091 0.0023417562801829874
        -0.006559415851590073 -0.00941219542528059 -0.005447024894611649
        -0.004215007384856537 -0.014824837459798497 -0.005103537848844835
        -0.01712688092500802 -0.011132740236302775 -0.013520391904608894
        -0.010372473694331042 0.008477907315879487 -0.007422757593192378
        -0.005904894089353623 -0.015419856181233075 -0.003195534771507768
        0.008637662688390942 0.001242672135383848 0.0009775557442237715
        """,
    ),
}

FLOAT = re.compile(r"-?\d+\.\d+(?:e[+-]?\d+)?|-?\d+e[+-]?\d+")


def run_case(name: str) -> dict:
    """Run one case in the current directory; returns {output file: bytes}."""
    argv, outputs = CASES[name]
    assert main(argv) == 0
    return {out: pathlib.Path(out).read_bytes() for out in outputs}


def split_floats(data: bytes) -> tuple[str, list[float]]:
    """(sha256 of the text with each float masked as "#", the floats in order)."""
    text = data.decode()
    masked = FLOAT.sub("#", text).encode()
    return hashlib.sha256(masked).hexdigest(), [float(v) for v in FLOAT.findall(text)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    make_inputs(str(directory))
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    for out, data in run_case(name).items():
        if (name, out) in VALUES:
            digest, values = VALUES[name, out]
            got_digest, got = split_floats(data)
            assert got_digest == digest, out
            assert got == pytest.approx([float(v) for v in values.split()], rel=1e-9, abs=0.0), out
        else:
            assert hashlib.sha256(data).hexdigest() == DIGESTS[name, out], out


def one_cpu() -> None:
    """Pin the calling process to one CPU of its affinity mask, where it has one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_golden_outputs_under_another_blas_kernel():
    # Prescott is OpenBLAS's oldest x86-64 kernel set; other builds ignore the variable
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(tests, os.pardir, "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::test_golden_outputs"],
        cwd=tests, env=env, capture_output=True, text=True, preexec_fn=one_cpu,
    )
    assert run.returncode == 0, run.stdout[-2000:]


def print_table() -> None:
    """Print DIGESTS and VALUES for the current tree (a declared output change)."""
    digests, values, cwd = [], [], os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        make_inputs(directory)
        for name in sorted(CASES):
            os.chdir(directory)
            with contextlib.redirect_stdout(io.StringIO()):
                outputs = run_case(name)
            os.chdir(cwd)
            for out, data in outputs.items():
                if (name, out) in VALUES:
                    digest, floats = split_floats(data)
                    body = textwrap.fill(" ".join(map(repr, floats)), 92, initial_indent=" " * 8,
                                         subsequent_indent=" " * 8)
                    values.append(f'    ("{name}", "{out}"): (\n        "{digest}",\n'
                                  f'        """\n{body}\n        """,\n    ),')
                else:
                    digests.append(f'    ("{name}", "{out}"): "{hashlib.sha256(data).hexdigest()}",')
    print("DIGESTS = {", *digests, "}", "", "VALUES = {", *values, "}", sep="\n")


if __name__ == "__main__":
    print_table()
