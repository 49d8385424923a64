"""Property-based checks of the worth latent model against its definitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osmrank.combinatorics import OrderedPartition
from osmrank.core import MatrixPairModel, log_weight
from osmrank.latent import (
    LatentModel,
    WorthLatentModel,
    effective_pair_model,
    hidden_posterior,
    log_joint_weight,
)
from osmrank.pipeline import complete_rank

worths = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def worth_latent_cases(draw):
    """A worth latent model over a catalog, a partition of part of the
    catalog (the seen items), the unseen rest and a hidden state."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, 4))
    m = WorthLatentModel(draw(worths), draw(arrays(float, n, elements=worths)),
                         draw(arrays(float, (n, k), elements=worths)))
    items = draw(st.permutations(range(n)))
    n_seen = draw(st.integers(1, n - 1))
    labels = draw(st.lists(st.integers(0, n_seen - 1), min_size=n_seen, max_size=n_seen))
    blocks = [[i for i, b in zip(items, labels) if b == t] for t in sorted(set(labels))]
    X = OrderedPartition.from_blocks(blocks, n)
    h = np.array(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)), dtype=np.int8)
    return m, X, items[n_seen:], h


@given(worth_latent_cases())
def test_worth_latent_model_matches_its_definitions(case):
    m, X, unseen, h = case
    close = dict(rel=1e-12, abs=1e-9)
    hidden = m.hidden
    assert m.log_omegas(X).tolist() == pytest.approx([log_weight(X, hm) for hm in hidden], **close)
    assert log_weight(X, effective_pair_model(h, m)) == pytest.approx(log_joint_weight(X, h, m), **close)

    active = np.flatnonzero(h).tolist()
    assert np.array_equal(effective_pair_model(h, m).worth, m.u + sum(m.W[:, k] for k in active))

    # score(j) = sum_{i in seen} [log psi(j > i) + sum_k p_k log psi_k(j > i)] on the tables
    tables = LatentModel(MatrixPairModel(*m.base.tables()), [MatrixPairModel(*hm.tables()) for hm in hidden])
    p = hidden_posterior(X, tables)
    order = tables.base.order + sum(pk * hm.order for pk, hm in zip(p, tables.hidden))
    seen = list(X.objects)
    ranking = complete_rank(X, unseen, m)
    assert sorted(ranking.items) == sorted(unseen)
    for j, score in zip(ranking.items, ranking.scores):
        assert score == pytest.approx(order[j, seen].sum(), **close)
