"""retrain's carried per-fold sums: a corpus's model has the same bits
whether its rows arrived bucket by bucket or all at once, in or out of start
order, and whether or not they went through save_corpus/load_corpus."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curbsim import engine
from curbsim.engine import Simulation, build_arrivals
from curbsim.grid import make_grid
from curbsim.predictor import (
    BUCKET_MINUTES,
    HistoryCorpus,
    load_corpus,
    retrain,
    save_corpus,
    trailing_trend,
)
from perfbench.workloads import city22_config, lattice_capacity


def fresh(corpus, rows=slice(None)):
    """A new corpus, with no carried sums, of the given rows' four columns."""
    return HistoryCorpus(corpus.n_cells, corpus.base_weekday, corpus.cells[rows], corpus.starts[rows],
                         corpus.rho[rows], corpus.attempts[rows])


def assert_same_model(got, want):
    assert np.array_equal(got.coefficients, want.coefficients)
    assert (got.intercept, got.lam) == (want.intercept, want.lam)


@pytest.fixture(scope="module")
def city_day():
    """One cold-start cord-approx day of the 22x22 city; every corpus the
    engine retrained on, as (rows, model) at each retrain."""
    cfg = city22_config("cord-approx", 7)
    grid, _ = make_grid(22, capacity=1, zones=3)
    sim = Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed)
    seen = []

    def spy(corpus):
        model = retrain(corpus)
        seen.append((len(corpus), model))
        return model

    mp = pytest.MonkeyPatch()
    mp.setattr(engine, "retrain", spy)
    try:
        sim.run()
    finally:
        mp.undo()
    return sim.corpus, seen


def test_the_engine_model_equals_a_fresh_corpus_model_at_every_hour(city_day):
    corpus, seen = city_day
    assert len(seen) == 24
    for rows, model in seen:
        assert_same_model(model, retrain(fresh(corpus, slice(rows))))


def test_a_row_trend_is_fixed_when_the_row_enters(city_day):
    corpus, _ = city_day
    everything = trailing_trend(corpus, corpus.cells, corpus.starts)
    for hour in range(1, 24):
        rows = np.flatnonzero(corpus.starts < hour * BUCKET_MINUTES)
        part = fresh(corpus, rows)
        assert np.array_equal(trailing_trend(part, part.cells, part.starts), everything[rows])


def test_a_saved_corpus_loads_with_the_same_model_bits(city_day, tmp_path):
    corpus, _ = city_day
    path = tmp_path / "history.csv"
    save_corpus(path, corpus)
    back = load_corpus(path, corpus.n_cells)
    assert back._sums is None  # the sums are built at the first retrain
    assert_same_model(retrain(back), retrain(corpus))
    assert replace(corpus)._sums is None


def test_an_append_that_starts_before_the_carried_rows_resums_them(city_day):
    corpus, _ = city_day
    late = np.flatnonzero(corpus.starts >= 12 * 60)
    early = np.flatnonzero(corpus.starts < 12 * 60)
    grown = fresh(corpus, late)
    retrain(grown)
    grown.cells, grown.starts, grown.rho, grown.attempts = (
        np.concatenate([col[late], col[early]]) for col in (corpus.cells, corpus.starts, corpus.rho, corpus.attempts))
    assert_same_model(retrain(grown), retrain(fresh(grown)))


@st.composite
def appended(draw):
    """A corpus and the row counts after each of its appends: rows of a few
    cells at hourly starts, each append in any start order."""
    n_cells = draw(st.integers(1, 12))
    row = st.tuples(st.integers(0, n_cells - 1), st.integers(0, 48), st.integers(0, 4))
    rows = draw(st.lists(row, min_size=1, max_size=120))
    if draw(st.booleans()):  # in start order, as the engine appends them
        rows.sort(key=lambda r: r[1])
    cuts = sorted(set(draw(st.lists(st.integers(1, len(rows)), max_size=6))) | {len(rows)})
    cells, hours, wins = zip(*rows)
    corpus = HistoryCorpus(n_cells, draw(st.integers(0, 6)), cells, np.array(hours) * BUCKET_MINUTES,
                           np.array(wins) / 4, [4] * len(rows))
    return corpus, cuts


@settings(deadline=None, max_examples=150)
@given(appended())
def test_retrain_after_each_append_equals_a_fresh_retrain(case):
    whole, cuts = case
    grown = fresh(whole, slice(0))
    for cut in cuts:
        part = fresh(whole, slice(cut))
        grown.cells, grown.starts, grown.rho, grown.attempts = part.cells, part.starts, part.rho, part.attempts
        assert_same_model(retrain(grown), retrain(part))
