import numpy as np

from mathcorpus.recurrent import draw


def test_draw_matches_searchsorted_row_by_row():
    rng = np.random.default_rng(0)
    B, V = 200, 7
    p = rng.random((B, V))
    p[rng.random((B, V)) < 0.3] = 0.0
    p[np.arange(B), rng.integers(0, V, B)] += 0.1  # no all-zero row
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    # u at 0, on each exact cumulative boundary, above the last cumulative
    # sum, and at random
    us = [np.zeros(B), np.nextafter(cum[:, -1], 2.0), rng.random(B)]
    us += [cum[:, j] for j in range(V)]
    for u in us:
        picks = draw(p, u)
        for b in range(B):
            assert draw(p[b], u[b]) == picks[b]
            assert p[b, picks[b]] > 0.0  # a zero column is never drawn
            if 0.0 < u[b] <= cum[b, -1]:
                assert picks[b] == int(np.searchsorted(cum[b], u[b]))


def test_draw_skips_zero_columns_at_the_ends():
    p = np.array([0.0, 0.5, 0.5, 0.0])
    assert draw(p, 0.0) == 1
    assert draw(p, 1.0) == 2
    assert draw(p, 2.0) == 2
    rows = np.array([p, [0.0, 0.0, 1.0, 0.0]])
    assert list(draw(rows, np.zeros(2))) == [1, 2]
