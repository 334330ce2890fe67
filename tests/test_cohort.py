"""Synthetic cohort generation, folds, and the cohort CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.cohort import (Cohort, CohortSpec, default_hazard_coef,
                             fold_split, generate_cohort, load_cohort,
                             modality_spans, save_cohort, split_folds)
from survfuse.errors import ShapeError, ValidationError
from survfuse.survival import probe_c_index

COLUMNS = ("ids", "times", "events", "x_cnv", "x_rna", "x_img")


def _same(a, b):
    """Equal cohorts: every column equal, row for row."""
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS)


def _probe(cohort, block, seed=0):
    """Held-out linear Cox C-index on one feature block (50/50 split)."""
    x = getattr(cohort, block)
    half = len(cohort) // 2
    return probe_c_index(x[:half], cohort.times[:half], cohort.events[:half],
                         x[half:], cohort.times[half:], cohort.events[half:])


# ---------------------------------------------------------------------------
# latent windows and hazard profile


def test_modality_spans_at_default_width():
    span_g, span_r, span_p = modality_spans(8)
    assert (list(span_g), list(span_r), list(span_p)) == (
        [0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64))
def test_spans_cover_every_latent_dim(latent_dim):
    span_g, span_r, span_p = modality_spans(latent_dim)
    assert set(span_g) | set(span_r) | set(span_p) == set(range(latent_dim))
    assert len(span_g) == len(span_r) == len(span_p)


def test_default_hazard_profile():
    coef = default_hazard_coef(8)
    base = 1.5 / np.sqrt(8)
    # genomic-only dims loaded heaviest, image-only lightest
    assert np.allclose(coef[[0, 1, 2, 3]], 1.2 * base)
    assert np.allclose(coef[[4, 5]], 0.9 * base)
    assert np.allclose(coef[[6, 7]], 0.5 * base)


# ---------------------------------------------------------------------------
# generation


def test_spec_validation():
    with pytest.raises(ValidationError):
        CohortSpec(n_patients=0)
    with pytest.raises(ValidationError):
        CohortSpec(noise_g=-1.0)
    for key in ("noise_g", "noise_p"):
        with pytest.raises(ValidationError, match=rf"^{key} must lie in \[0, 100\], got 1e\+300$"):
            CohortSpec(**{key: 1e300})
        CohortSpec(**{key: 100.0})
    with pytest.raises(ValidationError):
        CohortSpec(censor_fraction=1.0)
    with pytest.raises(ValidationError):
        CohortSpec(hazard_coef=np.ones(3))  # latent_dim is 8
    with pytest.raises(ValidationError):
        CohortSpec(share_maps=True, dim_image=16, dim_cnv_mut=32)


def test_generation_is_deterministic():
    a = generate_cohort(CohortSpec(n_patients=20, seed=11))
    b = generate_cohort(CohortSpec(n_patients=20, seed=11))
    assert _same(a, b)
    c = generate_cohort(CohortSpec(n_patients=20, seed=12))
    assert not _same(a, c)


def test_per_patient_streams_are_order_free():
    # per-patient draws don't depend on cohort size; only the censor scale
    # (calibrated over the whole cohort) may shift observed times
    short = generate_cohort(CohortSpec(n_patients=10, seed=4))
    longer = generate_cohort(CohortSpec(n_patients=25, seed=4))
    for block in ("x_cnv", "x_rna", "x_img"):
        assert np.array_equal(getattr(short, block), getattr(longer, block)[:10])


def test_censoring_lands_near_target():
    for target in (0.2, 0.3, 0.5):
        cohort = generate_cohort(CohortSpec(n_patients=500, seed=1,
                                            censor_fraction=target))
        assert abs(np.mean(~cohort.events) - target) < 0.1


def test_ids_are_unique_and_zero_padded():
    ids = generate_cohort(CohortSpec(n_patients=12, seed=0)).ids.tolist()
    assert len(set(ids)) == 12
    assert ids[0] == "p00" and ids[11] == "p11"


def test_more_image_noise_weakens_image_probe():
    quiet = generate_cohort(CohortSpec(n_patients=400, seed=2, noise_p=0.3))
    loud = generate_cohort(CohortSpec(n_patients=400, seed=2, noise_p=3.0))
    assert _probe(loud, "x_img") < _probe(quiet, "x_img")


def test_extreme_image_noise_gives_chance_probe():
    cohort = generate_cohort(CohortSpec(n_patients=400, seed=3, noise_p=100.0))
    assert abs(_probe(cohort, "x_img") - 0.5) < 0.05


def test_shared_maps_equalize_the_branches():
    # image clone of the cnv channel (same map, window, and noise) must
    # probe within a few points of it
    cohort = generate_cohort(CohortSpec(n_patients=500, seed=5, share_maps=True,
                                        noise_p=0.3))
    gap = abs(_probe(cohort, "x_img") - _probe(cohort, "x_cnv"))
    assert gap < 0.03


def test_default_cohort_favors_genomic_channels():
    cohort = generate_cohort(CohortSpec(n_patients=500, seed=0))
    assert _probe(cohort, "x_rna") > _probe(cohort, "x_img")


# ---------------------------------------------------------------------------
# the column table


def test_cohort_columns_are_row_aligned_arrays():
    cohort = generate_cohort(CohortSpec(n_patients=9, seed=1))
    assert len(cohort) == 9
    assert cohort.times.dtype == np.float64 and cohort.events.dtype == bool
    for block, width in (("x_cnv", 32), ("x_rna", 64), ("x_img", 32)):
        x = getattr(cohort, block)
        assert x.shape == (9, width) and x.dtype == np.float64
        assert x.flags.c_contiguous


def test_take_keeps_the_rows_in_the_order_given():
    cohort = generate_cohort(CohortSpec(n_patients=9, seed=1))
    rows = np.array([7, 2, 5])
    sub = cohort.take(rows)
    assert sub.ids.tolist() == ["p7", "p2", "p5"]
    for column in COLUMNS:
        assert np.array_equal(getattr(sub, column), getattr(cohort, column)[rows])
    assert sub.x_rna.flags.c_contiguous


def test_cohort_checks_times_and_row_counts():
    cohort = generate_cohort(CohortSpec(n_patients=3, seed=0))
    columns = {c: getattr(cohort, c) for c in COLUMNS}
    for bad in (0.0, -1.0, np.inf, np.nan):
        times = cohort.times.copy()
        times[1] = bad
        with pytest.raises(ValidationError, match="record 'p1': time must be positive"):
            Cohort(**dict(columns, times=times))
    with pytest.raises(ShapeError):
        Cohort(**dict(columns, x_img=cohort.x_img[:2]))
    with pytest.raises(ShapeError):
        Cohort(**dict(columns, events=cohort.events[:2]))


# ---------------------------------------------------------------------------
# folds


def _cohort(n=30, seed=0):
    return generate_cohort(CohortSpec(n_patients=n, seed=seed))


def _test_rows(plan, fold):
    return np.flatnonzero(plan.fold_of == fold)


def test_fold_sizes_and_partition():
    cohort = _cohort(30)
    plan = split_folds(cohort, k=15, seed=0)
    assert plan.k == 15
    assert plan.fold_of.shape == (30,)
    assert [len(_test_rows(plan, f)) for f in range(15)] == [2] * 15
    seen = np.concatenate([_test_rows(plan, f) for f in range(15)])
    assert sorted(seen.tolist()) == list(range(30))


def test_every_fold_gets_an_event():
    cohort = _cohort(45, seed=7)
    plan = split_folds(cohort, k=15, seed=7)
    for f in range(15):
        assert cohort.events[_test_rows(plan, f)].any()


def test_split_is_seed_deterministic():
    cohort = _cohort(30)
    assert np.array_equal(split_folds(cohort, 5, seed=3).fold_of,
                          split_folds(cohort, 5, seed=3).fold_of)
    assert not np.array_equal(split_folds(cohort, 5, seed=3).fold_of,
                              split_folds(cohort, 5, seed=4).fold_of)


def _event_free_before_repair(cohort, k, seed):
    """Folds with no uncensored row after the shuffle and round robin alone."""
    labels = np.empty(len(cohort), dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    labels[rng.permutation(len(cohort))] = np.arange(len(cohort)) % k
    return int((np.bincount(labels[cohort.events], minlength=k) == 0).sum())


# Literal labels pin the seeded shuffle, the round robin and the repair order:
# changing any of them moves some row to another fold, and with it every
# cross-validated result.
def test_fold_labels_after_repairing_four_event_free_folds():
    cohort = generate_cohort(CohortSpec(n_patients=30, seed=0, censor_fraction=0.6))
    assert _event_free_before_repair(cohort, 12, seed=0) == 4
    assert split_folds(cohort, 12, seed=0).fold_of.tolist() == [
        11, 2, 1, 9, 3, 3, 8, 0, 5, 5, 0, 2, 1, 10, 6, 7, 11, 4, 5, 4, 7, 4, 9, 3, 6,
        10, 1, 0, 8, 2]


def test_fold_labels_without_repair():
    cohort = _cohort(30, seed=3)
    assert _event_free_before_repair(cohort, 5, seed=3) == 0
    assert split_folds(cohort, 5, seed=3).fold_of.tolist() == [
        2, 3, 4, 1, 3, 1, 3, 1, 4, 4, 3, 4, 4, 0, 2, 2, 0, 4, 0, 0, 1, 3, 2, 2, 0, 1, 3,
        0, 2, 1]


def test_split_errors():
    cohort = _cohort(10)
    with pytest.raises(ValidationError):
        split_folds(cohort, k=1, seed=0)
    with pytest.raises(ValidationError):
        split_folds(cohort, k=11, seed=0)
    cohort.events[:] = False
    with pytest.raises(ValidationError):
        split_folds(cohort, k=2, seed=0)


def test_fold_split_partitions_records():
    cohort = _cohort(20)
    plan = split_folds(cohort, k=4, seed=0)
    train, test = fold_split(cohort, plan, 2)
    assert len(train) + len(test) == 20
    assert _same(test, cohort.take(_test_rows(plan, 2)))
    assert _same(train, cohort.take(np.flatnonzero(plan.fold_of != 2)))
    with pytest.raises(ValidationError):
        fold_split(cohort, plan, 4)
    with pytest.raises(ValidationError, match="labels 20 rows, the cohort has 10"):
        fold_split(cohort.take(np.arange(10)), plan, 0)


# ---------------------------------------------------------------------------
# CSV round trip


def test_cohort_csv_round_trip(tmp_path):
    cohort = _cohort(15, seed=6)
    path = str(tmp_path / "cohort.csv")
    save_cohort(path, cohort)
    back = load_cohort(path)
    assert _same(back, cohort)   # repr() serialization is lossless
    assert back.x_cnv.flags.c_contiguous and back.x_img.flags.c_contiguous
    save_cohort(str(tmp_path / "cohort2.csv"), back)
    assert (tmp_path / "cohort.csv").read_bytes() == \
        (tmp_path / "cohort2.csv").read_bytes()


def test_save_cohort_rejects_empty(tmp_path):
    with pytest.raises(ValidationError):
        save_cohort(str(tmp_path / "x.csv"), _cohort(4).take([]))


def test_load_cohort_row_addressed_errors(tmp_path):
    path = tmp_path / "bad.csv"
    head = "id,time,event,g0,r0,p0\n"
    path.write_text(head + "a,1.0,1,0.1,0.2,0.3\nb,oops,0,0.1,0.2,0.3\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_cohort(str(path))
    path.write_text(head + "a,1.0,2,0.1,0.2,0.3\n")
    with pytest.raises(ValidationError, match="event must be 0 or 1"):
        load_cohort(str(path))
    path.write_text(head + "a,-1.0,1,0.1,0.2,0.3\n")
    with pytest.raises(ValidationError, match="time must be positive"):
        load_cohort(str(path))
    path.write_text(head + "a,1.0,1,0.1,0.2\n")
    with pytest.raises(ValidationError, match="expected 6 fields"):
        load_cohort(str(path))
    for bad in ("nan", "inf", "-inf"):
        path.write_text(head + f"a,1.0,1,0.1,0.2,0.3\nb,2.0,0,0.1,{bad},0.3\n")
        with pytest.raises(ValidationError, match="row 3: column 'r0' is not finite"):
            load_cohort(str(path))
    path.write_text("id,time,event,q0\na,1.0,1,0.5\n")
    with pytest.raises(ValidationError, match="unexpected column"):
        load_cohort(str(path))
    path.write_text(head)
    with pytest.raises(ValidationError, match="no data rows"):
        load_cohort(str(path))
    path.write_text(head + "a,1.0,1,0.1,0.2,0.3\na,2.0,0,0.1,0.2,0.3\n")
    with pytest.raises(ValidationError, match="row 3: duplicate id 'a'"):
        load_cohort(str(path))
