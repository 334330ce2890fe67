"""Latent-space smoothing via mixup on single-cell expression profiles.

Stage 1 of the pipeline: a frozen nonlinear encoder maps expression vectors
into a latent space whose geometry between samples is unconstrained. We
simulate bulk expression by convex interpolation of two cell profiles
(lambda drawn fresh per pair per step), push the mixture through the frozen
encoder and a trainable head (MLP-A + linear classifier), and regress the
interpolated one-hot targets with mse. MLP-A learns to straighten the
encoder's latent space; afterwards MLP-A is frozen too and reused by the
survival model as the bulk-RNA feature path.

The smoothness of the composed map E = mlp_a . encoder is quantified by
interpolation_gap: mean L2 distance between E(mix) and the matching convex
combination of E at the endpoints.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (NumericalError, ShapeError, ValidationError, csv_lines,
                     open_text, write_text)
from .nnet import (DenseLayer, add_layers, checkpoint_layers, layer_group,
                   load_checkpoint, make_mlp, meta_typed, mlp_backward,
                   mlp_forward, mse_loss, save_checkpoint, sgd_step,
                   stack_names, step_decay_eta)

DEFAULT_GENE_DIM = 64


# ---------------------------------------------------------------------------
# cell corpus


def _check_cells(expression: np.ndarray, types: np.ndarray, where: str = "cell {}",
                 first: int = 0, complete: bool = True) -> None:
    """The corpus rules, in the order a reader meets them: cell by cell, a finite,
    non-negative expression and a non-negative type (a Python int, of any size);
    then, if complete, types exactly 0..K-1. The first broken rule raises
    ValidationError led by where.format(first + its cell's index)."""
    bad = ~((0.0 <= expression) & (expression < np.inf))
    rows = np.flatnonzero(bad.any(axis=1) | (types < 0))
    if rows.size:
        i, j = rows[0], bad[rows[0]].argmax()
        reason = (f"gene_{j} = {float(expression[i, j])!r}: expression must be finite "
                  "and non-negative" if bad[i, j] else f"cell_type {types[i]} is negative")
        raise ValidationError(f"{where.format(first + i)}: {reason}")
    labels = types.tolist()
    # sized by the cells, never by a type's value; np.unique would import numpy.ma
    kinds = sorted(set(labels))
    if complete and kinds[-1] != len(kinds) - 1:
        missing = next(i for i, t in enumerate(kinds) if t != i)
        raise ValidationError(f"{where.format(first + labels.index(kinds[-1]))}: cell_type "
                              f"{kinds[-1]}, but no cell has type {missing}; "
                              "types must be 0..K-1")


@dataclass(eq=False)
class CellCorpus:
    """Single cells: a cells x genes float64 expression matrix and each cell's
    type, under the rules of _check_cells."""

    expression: np.ndarray
    types: np.ndarray

    def __post_init__(self):
        self.expression = np.ascontiguousarray(self.expression, dtype=np.float64)
        types = np.asarray(self.types, dtype=object).reshape(-1)
        if self.expression.ndim != 2 or self.expression.shape[0] != types.size or not types.size:
            raise ShapeError(f"{self.expression.shape} expression for {types.size} types")
        _check_cells(self.expression, types)
        self.types = types.astype(np.intp)

    def __len__(self) -> int:
        return self.types.size


# ---------------------------------------------------------------------------
# frozen encoder


class FrozenEncoder:
    """Deterministic expression → embedding map; parameters are write-locked.

    Stands in for a large pretrained encoder: any (weight, bias, activation)
    triple drops in behind the same interface.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str = "tanh"):
        weight = np.array(weight, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64).reshape(-1)
        if weight.ndim != 2:
            raise ShapeError("encoder weight must be 2-D (embed_dim x gene_dim)")
        if bias.size != weight.shape[0]:
            raise ShapeError("encoder bias length must equal embed_dim")
        if activation not in ("tanh", "identity"):
            raise ValidationError(f"unsupported encoder activation '{activation}'")
        weight.setflags(write=False)
        bias.setflags(write=False)
        self.weight = weight
        self.bias = bias
        self.activation = activation

    def __reduce__(self):
        # rebuild through __init__, so a copy (pickled to a worker, say) is
        # write-locked too
        return FrozenEncoder, (self.weight, self.bias, self.activation)

    @property
    def gene_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    def apply(self, x) -> np.ndarray:
        """Encode a (n, gene_dim) matrix, one sample per row."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.gene_dim:
            raise ShapeError(f"input has shape {x.shape}, encoder expects "
                             f"(n, {self.gene_dim})")
        z = x @ self.weight.T + self.bias
        return np.tanh(z) if self.activation == "tanh" else z


def default_encoder(gene_dim: int = DEFAULT_GENE_DIM, embed_dim: int = 32,
                    seed: int = 0, scale: float = 2.0) -> FrozenEncoder:
    """Seeded random projection + tanh.

    `scale` controls how far preactivations reach into tanh's saturating
    regime — larger scale, more curvature, a less interpolation-friendly
    latent space.
    """
    if gene_dim <= 0 or embed_dim <= 0:
        raise ValidationError("encoder dims must be positive")
    if not 0.0 <= scale < np.inf:
        raise ValidationError(f"encoder scale must be finite and non-negative, got {scale}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xE0C]))
    weight = rng.normal(0.0, scale / np.sqrt(gene_dim), size=(embed_dim, gene_dim))
    bias = rng.normal(0.0, 0.1, size=embed_dim)
    return FrozenEncoder(weight, bias, activation="tanh")


# ---------------------------------------------------------------------------
# synthetic cell corpus


@dataclass
class CellCorpusSpec:
    n_cells: int = 850
    gene_dim: int = DEFAULT_GENE_DIM
    num_types: int = 17  # cell-type categories
    cluster_scale: float = 1.0   # spread of per-type mean expression
    noise_scale: float = 0.25    # within-type spread
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 2 or self.gene_dim <= 0 or self.num_types < 2:
            raise ValidationError("corpus needs >= 2 cells, positive gene_dim, >= 2 types")
        if not (0.0 <= self.cluster_scale < np.inf and 0.0 <= self.noise_scale < np.inf):
            raise ValidationError("scales must be finite and non-negative")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


def generate_cells(spec: CellCorpusSpec) -> CellCorpus:
    """Gaussian-cluster expression profiles, one cluster per cell type.

    Types are assigned round-robin so every type is populated; expression
    is clamped at 0. Per-cell randomness comes from an independent stream
    keyed by (seed, cell index), so generation order never matters.
    """
    mean_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCE11]))
    means = mean_rng.normal(0.0, spec.cluster_scale, size=(spec.num_types, spec.gene_dim))
    types = np.arange(spec.n_cells) % spec.num_types
    expression = np.empty((spec.n_cells, spec.gene_dim))
    for i, t in enumerate(types):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCE12, i]))
        np.maximum(means[t] + rng.normal(0.0, spec.noise_scale, spec.gene_dim), 0.0,
                   out=expression[i])
    return CellCorpus(expression, types)


def save_cells(path: str, cells: CellCorpus) -> None:
    header = [f"gene_{i}" for i in range(cells.expression.shape[1])] + ["cell_type"]
    rows = ([repr(v) for v in x.tolist()] + [t]
            for x, t in zip(cells.expression, cells.types.tolist()))
    write_text(path, csv_lines(header, rows))


def load_cells(path: str) -> CellCorpus:
    """Read a cell corpus; the first bad row, in file order, raises."""
    values, labels = array("d"), []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if header[-1:] != ["cell_type"] or len(header) < 2 or not all(
                h == f"gene_{i}" for i, h in enumerate(header[:-1])):
            raise ValidationError(f"{path}: unexpected header")
        gene_dim = len(header) - 1
        try:
            for row_no, row in enumerate(reader, start=2):
                if len(row) != gene_dim + 1:
                    raise ValidationError(f"{path}: row {row_no}: expected {gene_dim + 1} fields")
                try:
                    expr = [float(v) for v in row[:-1]]
                    labels.append(int(row[-1]))
                except ValueError as exc:
                    raise ValidationError(f"{path}: row {row_no}: {exc}") from exc
                values.extend(expr)
        except (ValidationError, UnicodeDecodeError, csv.Error):
            # a row read before the one that failed may break a corpus rule: it comes first
            _check_cells(np.frombuffer(values).reshape(len(labels), gene_dim),
                         np.array(labels, dtype=object), f"{path}: row {{}}", 2, complete=False)
            raise
    if not labels:
        raise ValidationError(f"{path}: no data rows")
    expression = np.frombuffer(values).reshape(len(labels), gene_dim)
    _check_cells(expression, np.array(labels, dtype=object), f"{path}: row {{}}", 2)
    return CellCorpus(expression, labels)


# ---------------------------------------------------------------------------
# stage-1 training


@dataclass
class Stage1Config:
    epochs: int = 8
    steps_per_epoch: int = 60
    batch_pairs: int = 32
    eta: float = 0.5
    # L2 penalty on MLP-A weights only.  Without it the fitted features grow
    # several-fold in norm and the absolute interpolation gap grows with them
    # even as the path straightens; decay pins the feature scale so the
    # straightening shows up in the gap itself.  Above ~0.01 the features
    # collapse toward zero instead, which zeroes the gap but destroys the
    # class signal — keep this small.
    weight_decay: float = 0.003
    hidden_dim: int = 128
    feature_dim: int = 32  # MLP-A output width, consumed by the survival model
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.steps_per_epoch <= 0 or self.batch_pairs <= 0:
            raise ValidationError("epochs must be >= 0, steps and batch_pairs positive")
        for key in ("hidden_dim", "feature_dim"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key} must be positive, got {getattr(self, key)}")
        if not 0.0 < self.eta < np.inf:
            raise ValidationError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValidationError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}")


@dataclass
class Stage1Result:
    """The frozen encoder and, once trained or loaded, MLP-A and its classifier;
    a run that trained them keeps each step's loss and experiment.run_stage1's report."""

    encoder: FrozenEncoder
    mlp_a: list[DenseLayer] | None = None
    classifier: DenseLayer | None = None
    loss_history: list[float] = field(default_factory=list)
    report: dict | None = None


def _stack_mixes(expr, hot, idx_a, idx_b, lams):
    lam = lams[:, None]
    mixed = lam * expr[idx_a] + (1.0 - lam) * expr[idx_b]
    target = lam * hot[idx_a] + (1.0 - lam) * hot[idx_b]
    return mixed, target


def pretrain_mlp_a(cells: CellCorpus, encoder: FrozenEncoder,
                   cfg: Stage1Config) -> Stage1Result:
    """Train MLP-A + linear classifier on mixed pairs; the encoder is untouched.

    Each step: draw batch_pairs index pairs and fresh lambdas, mix, encode,
    regress the mixed one-hot targets with mse. Loss per step is recorded.
    """
    num_types = int(cells.types.max()) + 1  # classifier width follows the corpus
    if num_types < 2:
        raise ValidationError("need at least 2 distinct cell types (mix targets degenerate)")

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA1]))
    mlp_a = make_mlp(encoder.embed_dim, cfg.feature_dim,
                     hidden_dim=cfg.hidden_dim, n_hidden=2, activation="relu", rng=init_rng)
    classifier = DenseLayer(cfg.feature_dim, num_types, activation="identity", rng=init_rng)
    groups = [layer_group("mlp_a", mlp_a), layer_group("classifier", [classifier])]

    hot = (cells.types[:, None] == np.arange(num_types)).astype(np.float64)
    step_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA2]))
    total_steps = cfg.epochs * cfg.steps_per_epoch
    history = []
    with np.errstate(over="ignore", invalid="ignore"):   # see fusion.train_survival
        for step in range(total_steps):
            idx_a, idx_b = step_rng.integers(0, len(cells), size=(2, cfg.batch_pairs))
            lams = step_rng.uniform(0.0, 1.0, size=cfg.batch_pairs)
            mixed, target = _stack_mixes(cells.expression, hot, idx_a, idx_b, lams)
            try:
                feat = mlp_forward(mlp_a, encoder.apply(mixed), train=True)
                pred = classifier.forward(feat, train=True)
                loss, grad = mse_loss(pred, target)
                # the encoder is frozen: no gradient w.r.t. MLP-A's input
                mlp_backward(mlp_a, classifier.backward(grad), input_cols=0)
                if cfg.weight_decay > 0.0:
                    for layer in mlp_a:  # decay weights only; biases and classifier float free
                        layer.grad_weight += cfg.weight_decay * layer.weight
                sgd_step(groups, step_decay_eta(cfg.eta, step, total_steps))
            except NumericalError as exc:
                raise NumericalError(f"stage 1, step {step}: {exc}") from exc
            history.append(loss)
    return Stage1Result(encoder, mlp_a, classifier, history)


def interpolation_gap(encoder: FrozenEncoder, mlp_a: list[DenseLayer],
                      cells: CellCorpus, pairs, lambdas) -> float:
    """Mean L2 distance between E(mix) and the convex combination of E at
    the endpoints, with E = mlp_a composed on the encoder. Row k of `pairs`
    holds the corpus rows of pair k's endpoints, mixed with weight
    lambdas[k] on the first. 0 = perfectly linear latent path."""
    if not len(pairs):
        raise ValidationError("interpolation_gap needs at least one pair")
    pairs = np.asarray(pairs)
    lambdas = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if pairs.shape != (lambdas.size, 2):
        raise ShapeError(f"pairs have shape {pairs.shape}, expected ({lambdas.size}, 2) "
                         "for the lambdas given")
    if ((pairs < 0) | (pairs >= len(cells))).any():
        raise ValidationError(f"pair rows must lie in [0, {len(cells)})")
    if ((lambdas < 0) | (lambdas > 1)).any():
        raise ValidationError("lambdas must lie in [0, 1]")

    def embed(x):
        return mlp_forward(mlp_a, encoder.apply(x))

    a, b = cells.expression[pairs.T]
    lam = lambdas[:, None]
    e_mix = embed(lam * a + (1.0 - lam) * b)
    e_interp = lam * embed(a) + (1.0 - lam) * embed(b)
    return float(np.linalg.norm(e_mix - e_interp, axis=1).mean())


def gap_probe_pairs(cells: CellCorpus, n_pairs: int, seed: int):
    """Deterministic held-out probe set for before/after gap comparisons:
    (n_pairs, 2) corpus rows and n_pairs lambdas."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA3]))
    return rng.integers(0, len(cells), size=(2, n_pairs)).T, rng.uniform(0.0, 1.0, size=n_pairs)


def save_stage1(path: str, result: Stage1Result) -> None:
    """Persist MLP-A (+ classifier and the encoder it was trained against)."""
    tensors = {}
    mlp_a_acts = add_layers(tensors, stack_names("mlp_a", len(result.mlp_a)), result.mlp_a)
    [classifier_act] = add_layers(tensors, ["classifier"], [result.classifier])
    tensors["encoder.weight"] = result.encoder.weight
    tensors["encoder.bias"] = result.encoder.bias
    meta = {"kind": "stage1", "mlp_a_activations": mlp_a_acts,
            "classifier_activation": classifier_act,
            "encoder_activation": result.encoder.activation,
            "final_loss": result.loss_history[-1] if result.loss_history else None}
    save_checkpoint(path, tensors, meta)


def load_stage1(path: str) -> Stage1Result:
    meta, tensors = load_checkpoint(path)
    if meta.get("kind") != "stage1":
        raise ValidationError(f"{path}: not a stage-1 checkpoint")
    try:
        mlp_acts = meta_typed(path, "mlp_a_activations",
                              meta["mlp_a_activations"], list)
        encoder = FrozenEncoder(tensors["encoder.weight"], tensors["encoder.bias"],
                                meta.get("encoder_activation", "tanh"))
        mlp_a = checkpoint_layers(path, tensors, stack_names("mlp_a", len(mlp_acts)),
                                  mlp_acts, encoder.embed_dim)
        [classifier] = checkpoint_layers(
            path, tensors, ["classifier"], [meta["classifier_activation"]],
            mlp_a[-1].out_dim if mlp_a else encoder.embed_dim)
    except KeyError as exc:
        raise ValidationError(f"{path}: checkpoint has no entry {exc}") from exc
    except ShapeError as exc:   # the encoder's weight and bias disagree
        raise ValidationError(f"{path}: {exc}") from exc
    return Stage1Result(encoder, mlp_a, classifier)
