import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import cv_mse, retrain_reference, select_lambda

from curbsim.engine import Simulation, build_arrivals
from curbsim.errors import ConfigError, SchemaError, SingularityError, ValidationError
from curbsim.grid import make_grid
from curbsim.predictor import (
    BUCKET_MINUTES,
    HistoryCorpus,
    HistoryRecord,
    corpus_design,
    feature_schema,
    fit_ridge,
    load_corpus,
    load_model,
    predict_availability,
    predict_many,
    retrain,
    save_corpus,
    save_model,
    uniform_model,
    update_history,
)
from perfbench.workloads import city22_config, lattice_capacity


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
    assert predict_availability(model, 0, 30, corpus) == pytest.approx(0.7)
    low = uniform_model(4, -0.3)
    assert predict_availability(low, 0, 30, corpus) == 0.01
    high = uniform_model(4, 1.8)
    assert predict_availability(high, 0, 30, corpus) == 1.0


def test_predict_unknown_cell():
    corpus = HistoryCorpus(4)
    model = uniform_model(9)
    with pytest.raises(SchemaError):
        predict_availability(model, 0, 0, corpus)
    with pytest.raises(SchemaError):
        predict_many(uniform_model(4), np.array([7]), 0, np.full(4, 0.5), 4)


def test_update_history():
    corpus = HistoryCorpus(4)
    update_history(corpus, {(2, 0): (4, 3)})
    assert corpus.records[-1].rho == pytest.approx(0.75)
    update_history(corpus, {(1, 60): (0, 0)})
    assert len(corpus) == 1
    with pytest.raises(ValidationError):
        update_history(corpus, {(1, 60): (2, 3)})


def test_retrain_single_record_constant():
    corpus = HistoryCorpus(4)
    update_history(corpus, {(2, 0): (4, 3)})
    model = retrain(corpus)
    for cell in range(4):
        assert predict_availability(model, cell, 700, corpus) == pytest.approx(0.75, abs=1e-6)


def test_retrain_empty_uniform_prior():
    model = retrain(HistoryCorpus(4))
    assert predict_availability(model, 1, 0, HistoryCorpus(4)) == pytest.approx(0.5)


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
                obs[(k, bucket)] = (attempts, wins)
            update_history(corpus, obs)
            bucket += 60
        model = retrain(corpus)
        preds = np.array([predict_availability(model, k, bucket, corpus) for k in range(n_cells)])
        mses.append(float(np.mean((preds - truth) ** 2)))
    assert mses[1] <= mses[0] * 1.1
    assert mses[2] <= mses[1] * 1.1


def test_predictions_invariant_to_row_order():
    rng = np.random.default_rng(5)
    corpus = HistoryCorpus(6)
    for _ in range(40):
        update_history(
            corpus,
            {(int(rng.integers(0, 6)), 60 * int(rng.integers(0, 24))): (5, int(rng.integers(0, 6)))},
        )
    shuffled = HistoryCorpus(6, records=list(corpus.records))
    rng.shuffle(shuffled.records)
    m1, m2 = retrain(corpus), retrain(shuffled)
    for k in range(6):
        a = predict_availability(m1, k, 500, corpus)
        b = predict_availability(m2, k, 500, shuffled)
        assert a == pytest.approx(b, abs=1e-9)


def test_corpus_trend_window_matches_contract():
    corpus = HistoryCorpus(3)
    rows = [(0, 0, 0.2), (0, 60, 0.4), (0, 120, 0.6), (0, 300, 0.9), (1, 60, 0.3)]
    for c, b, rho in rows:
        corpus.records.append(HistoryRecord(c, b, rho))
    x, _ = corpus_design(corpus)
    for idx, rec in enumerate(corpus.records):
        assert x[idx, -1] == pytest.approx(corpus.trend(rec.cell, rec.bucket_start))
    vec = corpus.trend_vector(180)
    assert vec[0] == pytest.approx(np.mean([0.2, 0.4, 0.6]))
    assert vec[2] == pytest.approx(0.5)  # nothing observed: default


def test_retrain_rejects_bad_grid_and_folds():
    corpus = HistoryCorpus(4)
    update_history(corpus, {(0, 0): (3, 2)})
    for grid in ([], [0.0, 1.0], [-1.0]):
        with pytest.raises(ConfigError):
            retrain(corpus, grid=grid)
    with pytest.raises(ConfigError):
        retrain(corpus, folds=1)


def test_retrain_returns_fresh_model():
    corpus = HistoryCorpus(4)
    update_history(corpus, {(0, 0): (3, 2)})
    m1 = retrain(corpus)
    update_history(corpus, {(1, 60): (3, 1)})
    m2 = retrain(corpus)
    assert m1 is not m2
    assert m1.schema == m2.schema == feature_schema(4)


def test_corpus_and_model_roundtrip(tmp_path):
    corpus = HistoryCorpus(4)
    update_history(corpus, {(0, 0): (4, 2), (3, 60): (2, 2)})
    cpath = tmp_path / "hist.csv"
    save_corpus(cpath, corpus)
    back = load_corpus(cpath, 4)
    assert [(r.cell, r.bucket_start, r.rho) for r in back.records] == [
        (r.cell, r.bucket_start, r.rho) for r in corpus.records
    ]
    model = retrain(corpus)
    mpath = tmp_path / "model.json"
    save_model(mpath, model)
    loaded = load_model(mpath)
    assert loaded.lam == model.lam
    assert np.allclose(loaded.coefficients, model.coefficients)


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
        want = fit_ridge(x, y, got.lam, want.schema)
    g = np.concatenate([[got.intercept], got.coefficients])
    w = np.concatenate([[want.intercept], want.coefficients])
    assert got.schema == want.schema
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
    corpus = HistoryCorpus(n_cells, draw(st.integers(0, 6)))
    for cell, hour, wins in rows:
        corpus.records.append(HistoryRecord(cell, hour * BUCKET_MINUTES, wins / 4, 4))
    return corpus


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
    records = sim.corpus.records
    assert len(records) > 1000
    for hour in range(1, cfg.horizon // BUCKET_MINUTES + 1):
        seen = [r for r in records if r.bucket_start < hour * BUCKET_MINUTES]
        assert_matches_reference(HistoryCorpus(sim.corpus.n_cells, sim.corpus.base_weekday, seen))
