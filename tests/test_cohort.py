"""Synthetic cohort generation, folds, and the cohort CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.cohort import (CohortSpec, default_hazard_coef,
                             fold_split, generate_cohort, load_cohort,
                             modality_spans, save_cohort, split_folds)
from survfuse.errors import ValidationError
from survfuse.survival import probe_c_index


def _block(records, name):
    return np.stack([getattr(r, name) for r in records])


def _survival_arrays(records):
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    return times, events


def _probe(records, block, seed=0):
    """Held-out linear Cox C-index on one feature block (50/50 split)."""
    times, events = _survival_arrays(records)
    x = _block(records, block)
    half = len(records) // 2
    return probe_c_index(x[:half], times[:half], events[:half],
                         x[half:], times[half:], events[half:])


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
    with pytest.raises(ValidationError):
        CohortSpec(censor_fraction=1.0)
    with pytest.raises(ValidationError):
        CohortSpec(hazard_coef=np.ones(3))  # latent_dim is 8
    with pytest.raises(ValidationError):
        CohortSpec(share_maps=True, dim_image=16, dim_cnv_mut=32)


def test_generation_is_deterministic():
    a = generate_cohort(CohortSpec(n_patients=20, seed=11))
    b = generate_cohort(CohortSpec(n_patients=20, seed=11))
    assert a == b
    c = generate_cohort(CohortSpec(n_patients=20, seed=12))
    assert a != c


def test_per_patient_streams_are_order_free():
    # per-patient draws don't depend on cohort size; only the censor scale
    # (calibrated over the whole cohort) may shift observed times
    short = generate_cohort(CohortSpec(n_patients=10, seed=4))
    longer = generate_cohort(CohortSpec(n_patients=25, seed=4))
    for a, b in zip(short, longer):
        assert np.array_equal(a.cnv_mut, b.cnv_mut)
        assert np.array_equal(a.rna, b.rna)
        assert np.array_equal(a.image, b.image)


def test_censoring_lands_near_target():
    for target in (0.2, 0.3, 0.5):
        recs = generate_cohort(CohortSpec(n_patients=500, seed=1,
                                          censor_fraction=target))
        censored = np.mean([not r.event for r in recs])
        assert abs(censored - target) < 0.1


def test_ids_are_unique_and_zero_padded():
    recs = generate_cohort(CohortSpec(n_patients=12, seed=0))
    ids = [r.id for r in recs]
    assert len(set(ids)) == 12
    assert ids[0] == "p00" and ids[11] == "p11"


def test_more_image_noise_weakens_image_probe():
    quiet = generate_cohort(CohortSpec(n_patients=400, seed=2, noise_p=0.3))
    loud = generate_cohort(CohortSpec(n_patients=400, seed=2, noise_p=3.0))
    assert _probe(loud, "image") < _probe(quiet, "image")


def test_extreme_image_noise_gives_chance_probe():
    recs = generate_cohort(CohortSpec(n_patients=400, seed=3, noise_p=1e6))
    assert abs(_probe(recs, "image") - 0.5) < 0.05


def test_shared_maps_equalize_the_branches():
    # image clone of the cnv channel (same map, window, and noise) must
    # probe within a few points of it
    recs = generate_cohort(CohortSpec(n_patients=500, seed=5, share_maps=True,
                                      noise_p=0.3))
    gap = abs(_probe(recs, "image") - _probe(recs, "cnv_mut"))
    assert gap < 0.03


def test_default_cohort_favors_genomic_channels():
    recs = generate_cohort(CohortSpec(n_patients=500, seed=0))
    assert _probe(recs, "rna") > _probe(recs, "image")


# ---------------------------------------------------------------------------
# folds


def _cohort(n=30, seed=0):
    return generate_cohort(CohortSpec(n_patients=n, seed=seed))


def _test_ids(plan, fold):
    return [rid for rid, f in plan.assignments.items() if f == fold]


def test_fold_sizes_and_partition():
    recs = _cohort(30)
    plan = split_folds(recs, k=15, seed=0)
    assert plan.k == 15
    sizes = [len(_test_ids(plan, f)) for f in range(15)]
    assert sizes == [2] * 15
    seen = [rid for f in range(15) for rid in _test_ids(plan, f)]
    assert sorted(seen) == sorted(r.id for r in recs)


def test_every_fold_gets_an_event():
    recs = _cohort(45, seed=7)
    plan = split_folds(recs, k=15, seed=7)
    by_id = {r.id: r for r in recs}
    for f in range(15):
        assert any(by_id[rid].event for rid in _test_ids(plan, f))


def test_split_is_seed_deterministic():
    recs = _cohort(30)
    assert split_folds(recs, 5, seed=3).assignments == \
        split_folds(recs, 5, seed=3).assignments
    assert split_folds(recs, 5, seed=3).assignments != \
        split_folds(recs, 5, seed=4).assignments


def test_split_errors():
    recs = _cohort(10)
    with pytest.raises(ValidationError):
        split_folds(recs, k=1, seed=0)
    with pytest.raises(ValidationError):
        split_folds(recs, k=11, seed=0)
    all_censored = [type(r)(id=r.id, time=r.time, event=False, cnv_mut=r.cnv_mut,
                            rna=r.rna, image=r.image) for r in recs]
    with pytest.raises(ValidationError):
        split_folds(all_censored, k=2, seed=0)


def test_fold_split_partitions_records():
    recs = _cohort(20)
    plan = split_folds(recs, k=4, seed=0)
    train, test = fold_split(recs, plan, 2)
    assert len(train) + len(test) == 20
    assert {r.id for r in test} == set(_test_ids(plan, 2))
    assert not ({r.id for r in train} & {r.id for r in test})
    with pytest.raises(ValidationError):
        fold_split(recs, plan, 4)


# ---------------------------------------------------------------------------
# CSV round trip


def test_cohort_csv_round_trip(tmp_path):
    recs = _cohort(15, seed=6)
    path = str(tmp_path / "cohort.csv")
    save_cohort(path, recs)
    back = load_cohort(path)
    assert back == recs   # repr() serialization is lossless
    save_cohort(str(tmp_path / "cohort2.csv"), back)
    assert (tmp_path / "cohort.csv").read_bytes() == \
        (tmp_path / "cohort2.csv").read_bytes()


def test_save_cohort_rejects_empty(tmp_path):
    with pytest.raises(ValidationError):
        save_cohort(str(tmp_path / "x.csv"), [])


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
