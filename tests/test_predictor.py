from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    corpus_design,
    cv_mse,
    fold_mses,
    predict_availability,
    retrain_reference,
    select_lambda,
    trend,
)

from curbsim import engine
from curbsim.engine import Simulation, build_arrivals
from curbsim.errors import ConfigError, SingularityError, ValidationError
from curbsim.grid import make_grid
from curbsim.predictor import (
    BUCKET_MINUTES,
    DEFAULT_LAMBDA_GRID,
    FOLDS,
    TIE_RTOL,
    HistoryCorpus,
    RidgeModel,
    feature_dim,
    fit_ridge,
    load_corpus,
    predict_many,
    retrain,
    save_corpus,
    trailing_trend,
    uniform_model,
    update_history,
    _dense_columns,
    _NormalEquations,
)
from perfbench.workloads import city22_config, lattice_capacity


def observe(corpus, bucket_start, counts):
    """update_history with {cell: (attempts, successes)} for one bucket."""
    attempts = np.zeros(corpus.n_cells, np.int64)
    successes = np.zeros(corpus.n_cells, np.int64)
    for cell, (a, s) in counts.items():
        attempts[cell], successes[cell] = a, s
    return update_history(corpus, bucket_start, attempts, successes)


def take(corpus, rows):
    """The corpus restricted to the given row indices, in that order."""
    return replace(corpus, cells=corpus.cells[rows], starts=corpus.starts[rows], rho=corpus.rho[rows],
                   attempts=corpus.attempts[rows])


def predict(model, cell, tick, corpus):
    """predict_many's entry for one cell, with the trend vector of the tick's
    bucket."""
    bucket = (tick // BUCKET_MINUTES) * BUCKET_MINUTES
    return float(predict_many(model, bucket, corpus.trend_vector(bucket), corpus.base_weekday)[cell])


def ridge_oracle(x, y, lam):
    """Independent route: augmented least squares [X;sqrt(lam) P] via lstsq."""
    x = np.asarray(x, float)
    n, p = x.shape
    design = np.hstack([np.ones((n, 1)), x])
    aug = np.vstack([design, np.hstack([np.zeros((p, 1)), np.sqrt(lam) * np.eye(p)])])
    rhs = np.concatenate([np.asarray(y, float), np.zeros(p)])
    beta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return beta


def test_perfect_fit_lambda_zero():
    x = np.arange(1.0, 6.0)[:, None]
    m = fit_ridge(x, 2 * x.ravel(), 0.0)
    assert m.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert m.intercept == pytest.approx(0.0, abs=1e-12)


def test_shrinkage_limit():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    x -= x.mean(axis=0)
    y = rng.normal(size=50)
    m = fit_ridge(x, y, 1e9)
    assert np.linalg.norm(m.coefficients) < 1e-3


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n, p = int(rng.integers(3, 20)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.01, 10))
        m = fit_ridge(x, y, lam)
        want = ridge_oracle(x, y, lam)
        got = np.concatenate([[m.intercept], m.coefficients])
        assert np.max(np.abs(got - want)) / max(1e-12, np.max(np.abs(want))) < 1e-9


def test_lambda_zero_equals_ols():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    m = fit_ridge(x, y, 0.0)
    design = np.hstack([np.ones((30, 1)), x])
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    got = np.concatenate([[m.intercept], m.coefficients])
    assert np.max(np.abs(got - ols)) / np.max(np.abs(ols)) < 1e-9


def test_singularity_names_rank():
    with pytest.raises(SingularityError) as err:
        fit_ridge(np.ones((4, 2)), np.ones(4), 0.0)
    assert "rank" in str(err.value)


def test_select_lambda_singleton_and_duplicates():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    assert select_lambda(x, y, [3.5], 4) == 3.5
    assert select_lambda(x, y, [1.0, 1.0, 5.0], 4) in (1.0, 5.0)


def test_select_lambda_prefers_shrinkage_on_noise():
    grid = [0.01, 1.0, 1000.0]
    hits = 0
    for rep in range(100):
        rng = np.random.default_rng(rep)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        if select_lambda(x, y, grid, 5) == 1000.0:
            hits += 1
    assert hits >= 80


def test_select_lambda_fold_guard():
    with pytest.raises(ConfigError):
        select_lambda(np.ones((3, 1)), np.ones(3), [1.0], 5)
    with pytest.raises(ConfigError):
        select_lambda(np.ones((9, 1)), np.ones(9), [], 3)


def test_predict_clamps():
    corpus = HistoryCorpus(4)
    model = uniform_model(4, 0.7)
    assert predict(model, 0, 30, corpus) == pytest.approx(0.7)
    low = uniform_model(4, -0.3)
    assert predict(low, 0, 30, corpus) == 0.01
    high = uniform_model(4, 1.8)
    assert predict(high, 0, 30, corpus) == 1.0


def test_update_history():
    corpus = HistoryCorpus(4)
    observe(corpus, 0, {2: (4, 3)})
    assert corpus.rho[-1] == pytest.approx(0.75)
    observe(corpus, 60, {1: (0, 0)})
    assert len(corpus) == 1
    with pytest.raises(ValidationError):
        observe(corpus, 60, {1: (2, 3)})
    with pytest.raises(ValidationError):
        observe(corpus, 60, {1: (-1, 0)})
    with pytest.raises(ValidationError):
        update_history(corpus, 60, np.ones(3, np.int64), np.zeros(3, np.int64))
    observe(corpus, 60, {3: (5, 1), 0: (2, 2)})
    assert corpus.cells.tolist() == [2, 0, 3]
    assert corpus.starts.tolist() == [0, 60, 60]
    assert corpus.attempts.tolist() == [4, 2, 5]


def test_update_history_rebinds_columns():
    corpus = HistoryCorpus(4)
    observe(corpus, 0, {2: (4, 3)})
    copy = replace(corpus)
    observe(copy, 60, {1: (2, 1)})
    assert len(corpus) == 1 and len(copy) == 2
    assert corpus.cells.tolist() == [2]


def test_retrain_single_record_constant():
    corpus = HistoryCorpus(4)
    observe(corpus, 0, {2: (4, 3)})
    model = retrain(corpus)
    for cell in range(4):
        assert predict(model, cell, 700, corpus) == pytest.approx(0.75, abs=1e-6)


def test_retrain_empty_uniform_prior():
    model = retrain(HistoryCorpus(4))
    assert predict(model, 1, 0, HistoryCorpus(4)) == pytest.approx(0.5)


def test_retrain_mse_decreases_on_stationary_field():
    rng = np.random.default_rng(4)
    n_cells = 9
    truth = rng.uniform(0.2, 0.9, n_cells)
    corpus = HistoryCorpus(n_cells)
    mses = []
    bucket = 0
    for _ in range(3):
        for _ in range(8):  # 8 more hourly buckets per round
            obs = {}
            for k in range(n_cells):
                attempts = 6
                wins = int(rng.binomial(attempts, truth[k]))
                obs[k] = (attempts, wins)
            observe(corpus, bucket, obs)
            bucket += 60
        model = retrain(corpus)
        preds = np.array([predict(model, k, bucket, corpus) for k in range(n_cells)])
        mses.append(float(np.mean((preds - truth) ** 2)))
    assert mses[1] <= mses[0] * 1.1
    assert mses[2] <= mses[1] * 1.1


def test_predictions_invariant_to_row_order():
    rng = np.random.default_rng(5)
    corpus = HistoryCorpus(6)
    for _ in range(40):
        observe(corpus, 60 * int(rng.integers(0, 24)), {int(rng.integers(0, 6)): (5, int(rng.integers(0, 6)))})
    shuffled = take(corpus, rng.permutation(len(corpus)))
    m1, m2 = retrain(corpus), retrain(shuffled)
    for k in range(6):
        a = predict(m1, k, 500, corpus)
        b = predict(m2, k, 500, shuffled)
        assert a == pytest.approx(b, abs=1e-9)


def test_corpus_trend_window_matches_contract():
    rows = [(0, 0, 0.2), (0, 60, 0.4), (0, 120, 0.6), (0, 300, 0.9), (1, 60, 0.3)]
    cells, starts, rho = zip(*rows)
    corpus = HistoryCorpus(3, 0, cells, starts, rho, [1] * len(rows))
    trends = trailing_trend(corpus, corpus.cells, corpus.starts)
    for idx, (c, b, _) in enumerate(rows):
        assert trends[idx] == pytest.approx(trend(corpus, c, b))
    vec = corpus.trend_vector(180)
    assert vec[0] == pytest.approx(np.mean([0.2, 0.4, 0.6]))
    assert vec[2] == pytest.approx(0.5)  # nothing observed: default


def test_retrain_rejects_a_corpus_cell_off_the_grid():
    corpus = HistoryCorpus(4, 0, [1, 4], [0, 0], [0.5, 0.5], [2, 2])
    with pytest.raises(ValidationError, match="outside the grid's 0..3"):
        retrain(corpus)


def test_engine_predicts_with_the_weekday_the_model_was_fit_on():
    """A warm start whose corpus begins on weekday 3, run under cfg.weekday
    0: the engine's first predictions use weekday 3, as its model's fit did."""
    cfg = replace(city22_config("cord-approx", 7), horizon=60, weekday=0)
    grid, _ = make_grid(22, capacity=1, zones=3)
    corpus = HistoryCorpus(grid.n * grid.n, base_weekday=3)
    rng = np.random.default_rng(5)
    for hour in range(7 * 24):
        attempts = rng.integers(0, 3, corpus.n_cells)
        update_history(corpus, hour * BUCKET_MINUTES, attempts, rng.binomial(attempts, 0.4 + 0.04 * (hour // 24)))
    sim = Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed, corpus=corpus)
    assert sim.minute0 == 7 * 1440
    trend = corpus.trend_vector(sim.minute0)
    assert np.array_equal(sim._p_hat, predict_many(sim.model, sim.minute0, trend, 3))
    assert not np.array_equal(sim._p_hat, predict_many(sim.model, sim.minute0, trend, 0))


def test_retrain_returns_fresh_model():
    corpus = HistoryCorpus(4)
    observe(corpus, 0, {0: (3, 2)})
    m1 = retrain(corpus)
    observe(corpus, 60, {1: (3, 1)})
    m2 = retrain(corpus)
    assert m1 is not m2


def test_corpus_roundtrip(tmp_path):
    corpus = HistoryCorpus(4)
    observe(corpus, 0, {0: (4, 2)})
    observe(corpus, 60, {3: (2, 2)})
    cpath = tmp_path / "hist.csv"
    save_corpus(cpath, corpus)
    back = load_corpus(cpath, 4)
    for name in ("cells", "starts", "rho", "attempts"):
        assert getattr(back, name).tolist() == getattr(corpus, name).tolist()


def test_load_corpus_rejects_negative_cell_and_attempts(tmp_path):
    header = "k,bucket_start,rho,attempts\n"
    path = tmp_path / "hist.csv"
    path.write_text(header + "0,0,0.5,2\n-1,0,0.5,2\n")
    with pytest.raises(ValidationError, match="^line 3: k -1 outside"):
        load_corpus(path, 4)
    path.write_text(header + "0,0,0.5,2\n4,0,0.5,2\n")
    with pytest.raises(ValidationError, match="^line 3: cell 4 outside"):
        load_corpus(path, 4)
    path.write_text(header + "1,0,0.5,-2\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_corpus(path, 4)


def test_history_file_roundtrip_is_byte_identical(bootstrap_history, tmp_path):
    original = Path(bootstrap_history).read_bytes()
    corpus = load_corpus(bootstrap_history, 100)
    assert len(corpus) > 100
    out = tmp_path / "again.csv"
    save_corpus(out, corpus)
    assert out.read_bytes() == original


@st.composite
def trend_cases(draw):
    """Corpora with duplicate rows and starts off the hour (negative ones
    too), plus query starts for trend_vector."""
    n_cells = draw(st.integers(1, 8))
    row = st.tuples(st.integers(0, n_cells - 1), st.integers(-600, 600), st.floats(0.0, 1.0))
    rows = draw(st.lists(row, max_size=60))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=30))
    rows = draw(st.permutations(rows))
    cells, starts, rho = zip(*rows) if rows else ((), (), ())
    corpus = HistoryCorpus(n_cells, draw(st.integers(0, 6)), cells, starts, rho, [1] * len(rows))
    queries = draw(st.lists(st.integers(-700, 800), min_size=1, max_size=4))
    if rows:
        queries += draw(st.lists(st.sampled_from(starts), max_size=3))
    return corpus, queries


@settings(deadline=None, max_examples=200)
@given(trend_cases())
def test_trend_window_matches_scalar_reference(case):
    corpus, queries = case
    got = trailing_trend(corpus, corpus.cells, corpus.starts)
    want = [trend(corpus, c, s) for c, s in zip(corpus.cells.tolist(), corpus.starts.tolist())]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for start in queries:
        want = [trend(corpus, k, start) for k in range(corpus.n_cells)]
        np.testing.assert_allclose(corpus.trend_vector(start), want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(trend_cases(), st.data())
def test_predict_many_matches_dense_reference(case, data):
    corpus, _ = case
    n = corpus.n_cells
    coef = st.floats(-0.3, 0.3)
    model = RidgeModel(np.array(data.draw(st.lists(coef, min_size=feature_dim(n), max_size=feature_dim(n)))),
                       data.draw(st.floats(-0.2, 1.2)), 1.0)
    tick = data.draw(st.integers(0, 3 * 1440))
    bucket = (tick // BUCKET_MINUTES) * BUCKET_MINUTES
    got = predict_many(model, bucket, corpus.trend_vector(bucket), corpus.base_weekday)
    want = [predict_availability(model, k, tick, corpus) for k in range(n)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def assert_matches_reference(corpus, rtol=1e-9):
    """retrain agrees with the dense route: the same lambda, and coefficients
    within rtol of the largest one. Where the dense route picked another
    lambda, the two must tie in its own mean fold MSE (rounding broke an
    exact tie), and the coefficients are compared at retrain's lambda."""
    got = retrain(corpus)
    want = retrain_reference(corpus)
    if got.lam != want.lam:
        x, y = corpus_design(corpus)
        gap = abs(cv_mse(x, y, got.lam, 5) - cv_mse(x, y, want.lam, 5))
        assert gap <= rtol * np.mean(y * y), (got.lam, want.lam, gap)
        want = fit_ridge(x, y, got.lam)
    g = np.concatenate([[got.intercept], got.coefficients])
    w = np.concatenate([[want.intercept], want.coefficients])
    assert g.shape == w.shape
    assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


@st.composite
def corpora(draw):
    """Small corpora: empty and one-record cells, fewer records than folds,
    repeated rows, several weekdays."""
    n_cells = draw(st.integers(1, 30))
    row = st.tuples(st.integers(0, n_cells - 1), st.integers(0, 71), st.integers(0, 4))
    rows = draw(st.lists(row, max_size=100))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=100))
    rows = draw(st.permutations(rows))
    cells, starts, rho = ([cell for cell, _, _ in rows], [hour * BUCKET_MINUTES for _, hour, _ in rows],
                          [wins / 4 for _, _, wins in rows])
    return HistoryCorpus(n_cells, draw(st.integers(0, 6)), cells, starts, rho, [4] * len(rows))


@settings(deadline=None, max_examples=150)
@given(corpora())
def test_retrain_matches_dense_reference(corpus):
    assert_matches_reference(corpus)


def test_retrain_matches_dense_reference_on_city_day():
    """Every hourly corpus of one cold-start day of the 22x22 city."""
    cfg = city22_config("cord-approx", 7)
    grid, _ = make_grid(22, capacity=1, zones=3)
    sim = Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed)
    sim.run()
    corpus = sim.corpus
    assert len(corpus) > 1000
    for hour in range(1, cfg.horizon // BUCKET_MINUTES + 1):
        assert_matches_reference(take(corpus, np.flatnonzero(corpus.starts < hour * BUCKET_MINUTES)))


@settings(deadline=None, max_examples=150)
@given(corpora())
# every lambda fits a constant target exactly: a tie across the whole grid
@example(HistoryCorpus(3, 0, [0, 1, 2] * 4, [0, 0, 0, 60, 60, 60, 120, 120, 120, 180, 180, 180], [0.5] * 12, [4] * 12))
def test_retrain_picks_the_per_fold_lambda_and_solves_the_full_width_blocks(corpus):
    """retrain's blocks span the observed cells only and its lambda search is
    one batched pass. It must pick the smallest lambda in the tie band of one
    fit per (lambda, fold) over the full-width blocks, up to rounding at the
    band's edge, and its model must equal bit for bit the full-width fit at
    that lambda."""
    got = retrain(corpus)
    if not len(corpus):
        return
    cells, y = corpus.cells, corpus.rho
    dense = _dense_columns(corpus.starts, trailing_trend(corpus, cells, corpus.starts), corpus.base_weekday)
    eqs = _NormalEquations.zeros(FOLDS, corpus.n_cells)
    eqs.add(dense, cells, y, 0)
    if len(y) >= FOLDS:
        mses = dict(zip(DEFAULT_LAMBDA_GRID, fold_mses(eqs, dense, cells, y, DEFAULT_LAMBDA_GRID, FOLDS)))
        width = TIE_RTOL * float(np.mean(y * y))
        band = min(mses.values()) + width
        assert mses[got.lam] <= band + width / 2
        assert all(mse > band - width / 2 for lam, mse in mses.items() if lam < got.lam)
    beta_a, beta_c = eqs.total().solve(got.lam)
    assert np.array_equal(got.coefficients, np.concatenate([beta_a[1:10], beta_c, beta_a[10:]]))
    assert got.intercept == beta_a[0]


def test_bucket_predictions_equal_per_tick_predictions(monkeypatch):
    """Over three hours of the 22x22 city, two of them after a retrain, the
    predictions each tick's dispatch gets equal predict_many over that
    tick's free cells with the tick's model and trend."""
    cfg = replace(city22_config("cord-approx", 7), horizon=180)
    grid, _ = make_grid(22, capacity=1, zones=3)
    sim = Simulation(grid, lattice_capacity(22), build_arrivals(cfg, grid, cfg.seed), cfg, cfg.seed)
    free_spots, dispatch = Simulation._free_spots, engine.dispatch
    spots_seen, checked = [], []

    def spy_spots(self, t):
        spots_seen.append(free_spots(self, t))
        return spots_seen[-1]

    def spy_dispatch(*args, p_hat):
        t = sim.occ.tick
        start = sim.minute0 + (t // BUCKET_MINUTES) * BUCKET_MINUTES
        want = predict_many(sim.model, start, sim.corpus.trend_vector(start), sim.corpus.base_weekday)
        want = want.take(spots_seen[-1].k)
        assert np.array_equal(p_hat, want), t
        checked.append(t)
        return dispatch(*args, p_hat=p_hat)

    monkeypatch.setattr(Simulation, "_free_spots", spy_spots)
    monkeypatch.setattr(engine, "dispatch", spy_dispatch)
    sim.run()
    assert {t // BUCKET_MINUTES for t in checked} == {0, 1, 2}
    assert len(checked) > 150
