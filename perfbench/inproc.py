"""Child process of the benchmark; run with ``src`` on PYTHONPATH and the
workload's run directory as the working directory.

  inproc.py setup SEED RATINGS|- CHECKPOINT|-
      fresh-interpreter set-up probe: import osmrank.cli, then load the
      inputs through the public loaders (ratings: load_ratings,
      grade_ratings, entropy_filter, train_test_split, user_partitions;
      checkpoint: load_checkpoint, plus cf_latent_model when there are no
      ratings).
  inproc.py main TRACE RUN_ID OUT_JSON SPANS_TSV -- ARGV...
      one in-process osmrank.cli.main(ARGV); with TRACE=1 the span tracer
      is installed first and its spans, tagged RUN_ID, go to SPANS_TSV.
      Writes {rc, import_s, main_s[, trace]} to OUT_JSON.
"""

import json
import sys
import time


def setup(seed: int, ratings: str, checkpoint: str) -> None:
    import osmrank.cli  # noqa: F401
    from osmrank.learning import cf_latent_model, load_checkpoint
    from osmrank.pipeline import (
        SplitSpec,
        entropy_filter,
        grade_ratings,
        load_ratings,
        train_test_split,
        user_partitions,
    )

    if ratings != "-":
        ds = entropy_filter(grade_ratings(load_ratings(ratings)))
        train_ds, _ = train_test_split(ds, SplitSpec(n_train=10, min_ratings=20, seed=seed))
        user_partitions(train_ds)
    if checkpoint != "-":
        params = load_checkpoint(checkpoint)
        if ratings == "-":
            cf_latent_model(params)


def run_main(trace: bool, run_id: int, out_json: str, spans_tsv: str, argv: list) -> None:
    t0 = time.perf_counter()
    import osmrank.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()
    t1 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t1
    result = {"rc": rc, "import_s": import_s, "main_s": main_s}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spans_tsv)
    with open(out_json, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(int(sys.argv[2]), sys.argv[3], sys.argv[4])
    elif mode == "main":
        if sys.argv[6] != "--":
            sys.exit("usage: inproc.py main TRACE RUN_ID OUT_JSON SPANS_TSV -- ARGV...")
        run_main(sys.argv[2] == "1", int(sys.argv[3]), sys.argv[4], sys.argv[5], sys.argv[7:])
    else:
        sys.exit(f"unknown mode {mode!r}")
