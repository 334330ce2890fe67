"""Damaged input files: each loader returns a valid object or raises SurvfuseError.

A small cohort CSV, cell-corpus CSV and INI config (every section filled)
are type-confused (a field or value swapped for a literal of another type
or out of range: every single swap, then random combinations), truncated
and byte-edited. No damage may surface as another exception type (a
traceback from the CLI), and what loads must be usable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.cohort import (Cohort, CohortSpec, generate_cohort, load_cohort,
                             save_cohort)
from survfuse.config import (RunConfig, load_cells_spec, load_cohort_spec,
                             load_run_config)
from survfuse.errors import SurvfuseError
from survfuse.smoothing import (CellCorpus, CellCorpusSpec, generate_cells,
                                load_cells, save_cells)

NUM_TYPES = 3
INI = """\
[run]
seed = 3
eta = 0.02
epochs = 2
k_folds = 3
fusion_mode = concat
track_rho = true

[modulation]
enabled = true
rho_min = 0.2
aggregate = median
warmup_steps = 4

[smoothing]
enabled = false
stage1_eta = 0.4
encoder_seed = 1

[cohort]
n_patients = 40
latent_dim = 4
hazard_coef = 0.1, 0.2 0.3,0.4
censor_fraction = 0.25
share_maps = no
seed = 2
noise_g = 0.4

[cells]
n_cells = 20
num_types = 3
noise_scale = 0.5
seed = 2

[paths]
cohort = c.csv
out_dir = runs
"""


def _valid_cohort(cohort):
    assert isinstance(cohort, Cohort) and len(cohort) > 0
    for x in (cohort.x_cnv, cohort.x_rna, cohort.x_img):
        assert x.shape[0] == len(cohort) and x.shape[1] > 0
        assert np.isfinite(x).all()
    assert len(set(cohort.ids.tolist())) == len(cohort)
    assert (cohort.times > 0).all() and np.isfinite(cohort.times).all()


def _valid_cells(cells):
    assert isinstance(cells, CellCorpus) and len(cells) > 0
    assert cells.expression.ndim == 2 and cells.expression.shape[1] > 0
    assert np.isfinite(cells.expression).all() and (cells.expression >= 0).all()
    types = set(cells.types.tolist())   # the corpus sets its own type count
    assert types == set(range(len(types)))


def _seedable(*seeds):
    for seed in seeds:
        np.random.SeedSequence(seed)


def _valid_run_config(cfg):
    assert isinstance(cfg, RunConfig)
    _seedable(cfg.seed, cfg.smoothing.encoder_seed)


def _valid_cohort_spec(spec):
    assert isinstance(spec, CohortSpec)
    _seedable(spec.seed)
    assert 0 <= spec.noise_g < np.inf and 0 <= spec.noise_p < np.inf
    assert np.isfinite(spec.hazard_coef).all()


def _valid_cells_spec(spec):
    assert isinstance(spec, CellCorpusSpec)
    _seedable(spec.seed)
    assert 0 <= spec.cluster_scale < np.inf and 0 <= spec.noise_scale < np.inf


LOADERS = {
    "cohort.csv": [(load_cohort, _valid_cohort)],
    "cells.csv": [(load_cells, _valid_cells)],
    "run.ini": [(load_run_config, _valid_run_config),
                (load_cohort_spec, _valid_cohort_spec),
                (load_cells_spec, _valid_cells_spec)],
}
# bytes that keep the text parseable more often than random ones do
TEXT_BYTES = st.sampled_from(list(b"0123456789.-+eE \n,=[]_\"'%"))
# literals of the wrong type, or of the right type but out of range
LITERALS = ["abc", "", "-1", "-0.5", "0", "1.5", "7", "99999", "nan", "inf", "-inf",
            "1e999", "yes", "none", "[1, 2]", "%(x)s", "\"q\"", "p0", "concat",
            "kronecker", "median"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("loader_fuzz")
    save_cohort(str(root / "cohort.csv"),
                generate_cohort(CohortSpec(n_patients=8, latent_dim=2, dim_cnv_mut=2,
                                           dim_rna=3, dim_image=2, seed=0)))
    save_cells(str(root / "cells.csv"),
               generate_cells(CellCorpusSpec(n_cells=6, gene_dim=3,
                                             num_types=NUM_TYPES, seed=0)))
    (root / "run.ini").write_text(INI, encoding="utf-8")
    originals = {name: (root / name).read_bytes() for name in LOADERS}
    for name, loaders in LOADERS.items():   # the undamaged files load
        for loader, valid in loaders:
            valid(loader(str(root / name)))
    return root, originals


def _confuse(data: bytes, line_at: float, field_at: float, literal: str) -> bytes:
    """Swap one INI value or one CSV field for `literal`."""
    lines = data.decode("utf-8").split("\n")
    i = min(int(len(lines) * line_at), len(lines) - 1)
    if " = " in lines[i]:
        lines[i] = lines[i].split(" = ")[0] + " = " + literal
    else:
        fields = lines[i].split(",")
        fields[min(int(len(fields) * field_at), len(fields) - 1)] = literal
        lines[i] = ",".join(fields)
    return "\n".join(lines).encode("utf-8")


def _loads_or_raises_survfuse_error(path, name):
    for loader, valid in LOADERS[name]:
        try:
            loaded = loader(str(path))
        except SurvfuseError:
            continue
        valid(loaded)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_single_type_confusion_loads_or_raises(valid_files, name):
    root, originals = valid_files
    n_lines = originals[name].count(b"\n") + 1
    path = root / f"confused_{name}"
    for line in range(n_lines):
        for field_at in (0.0, 0.4, 0.99):
            for literal in LITERALS:
                path.write_bytes(_confuse(originals[name], (line + 0.5) / n_lines,
                                          field_at, literal))
                _loads_or_raises_survfuse_error(path, name)


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), cut=st.floats(0.0, 1.0),
       confusions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                     st.sampled_from(LITERALS)),
                           max_size=3),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.one_of(TEXT_BYTES, st.integers(0, 255))),
                      max_size=4))
def test_damaged_input_loads_or_raises_survfuse_error(valid_files, name, cut,
                                                      confusions, edits):
    root, originals = valid_files
    data = originals[name]
    for line_at, field_at, literal in confusions:
        data = _confuse(data, line_at, field_at, literal)
    data = bytearray(data)
    if cut < 0.2:   # a fifth of the cases: a file cut short
        del data[int(len(data) * cut / 0.2):]
    for where, value in edits:
        if data:
            data[min(int(len(data) * where), len(data) - 1)] = value
    path = root / f"damaged_{name}"
    path.write_bytes(bytes(data))
    _loads_or_raises_survfuse_error(path, name)
