"""Damaged checkpoint files: each loader returns an object or raises SurvfuseError.

Valid checkpoints of a small concat model, a small kronecker model and a
stage-1 result are truncated and byte-edited; no damage may surface as
another exception type (a traceback from the CLI).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survfuse.errors import SurvfuseError
from survfuse.fusion import FusionModel, head_width, load_model, save_model
from survfuse.nnet import DenseLayer, load_checkpoint, make_mlp
from survfuse.smoothing import (FrozenEncoder, Stage1Result, default_encoder,
                                load_stage1, save_stage1)

LOADERS = {"concat.ckpt": load_model, "kronecker.ckpt": load_model,
           "stage1.ckpt": load_stage1}
# bytes that keep the text parseable more often than random ones do
TEXT_BYTES = st.sampled_from(list(b"0123456789.-+eE \n[]{}\":,_"))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    encoder = default_encoder(gene_dim=5, embed_dim=3, seed=0)
    mlp_a = make_mlp(3, 2, hidden_dim=4, n_hidden=1, rng=rng)
    for mode in ("concat", "kronecker"):
        # one-layer SNN and MLP-B keep the files short: built here, since
        # build_model's stacks have fixed depths
        init = np.random.default_rng(np.random.SeedSequence([1, 0xF5]))
        snn = make_mlp(3, 2, hidden_dim=3, n_hidden=0, activation="selu",
                       out_activation="selu", rng=init)
        mlp_b = make_mlp(4, 2, hidden_dim=3, n_hidden=0, rng=init)
        image_encoder = make_mlp(2, 2, hidden_dim=3, n_hidden=1, rng=init)
        head = DenseLayer(head_width(2, 2, mode), 1, rng=init)
        model = FusionModel(snn, encoder, mlp_a, mlp_b, image_encoder, head, mode)
        model.fit_g2_normalization(rng.normal(size=(6, 5)))
        save_model(str(root / f"{mode}.ckpt"), model)
    stage1 = Stage1Result(encoder, mlp_a=mlp_a, classifier=DenseLayer(2, 3, rng=rng),
                          loss_history=[0.5])
    save_stage1(str(root / "stage1.ckpt"), stage1)
    return root, {name: (root / name).read_bytes() for name in LOADERS}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), cut=st.floats(0.0, 1.0),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.one_of(TEXT_BYTES, st.integers(0, 255))),
                      max_size=6))
def test_damaged_checkpoint_loads_or_raises_survfuse_error(valid_files, name, cut, edits):
    root, originals = valid_files
    data = bytearray(originals[name])
    if cut < 0.2:   # a fifth of the cases: a file cut short
        del data[int(len(data) * cut / 0.2):]
    for where, value in edits:
        if data:
            data[min(int(len(data) * where), len(data) - 1)] = value
    path = root / f"damaged_{name}"
    path.write_bytes(bytes(data))
    for loader in (load_checkpoint, LOADERS[name]):
        try:
            loaded = loader(str(path))
        except SurvfuseError:
            continue
        if loader is load_model:
            assert isinstance(loaded, FusionModel)
        elif loader is load_stage1:
            assert isinstance(loaded.classifier, DenseLayer)
            assert isinstance(loaded.encoder, FrozenEncoder)
            assert all(isinstance(layer, DenseLayer) for layer in loaded.mlp_a)
