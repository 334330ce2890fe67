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
# profiles


@dataclass(eq=False)
class CellProfile:
    """One cell: non-negative expression vector plus its type label (>= 0)."""

    expression: np.ndarray
    cell_type: int

    def __post_init__(self):
        self.expression = np.asarray(self.expression, dtype=np.float64).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(self.expression) | (self.expression < 0))
        if bad.size:
            raise ValidationError(f"gene_{bad[0]} = {float(self.expression[bad[0]])!r}: "
                                  "expression must be finite and non-negative")
        self.cell_type = int(self.cell_type)
        if self.cell_type < 0:
            raise ValidationError(f"cell_type {self.cell_type} is negative")


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


def generate_cells(spec: CellCorpusSpec) -> list[CellProfile]:
    """Gaussian-cluster expression profiles, one cluster per cell type.

    Types are assigned round-robin so every type is populated; expression
    is clamped at 0. Per-cell randomness comes from an independent stream
    keyed by (seed, cell index), so generation order never matters.
    """
    mean_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCE11]))
    means = mean_rng.normal(0.0, spec.cluster_scale, size=(spec.num_types, spec.gene_dim))
    cells = []
    for i in range(spec.n_cells):
        t = i % spec.num_types
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xCE12, i]))
        expr = np.maximum(means[t] + rng.normal(0.0, spec.noise_scale, spec.gene_dim), 0.0)
        cells.append(CellProfile(expr, t))
    return cells


def save_cells(path: str, cells: list[CellProfile]) -> None:
    if not cells:
        raise ValidationError("refusing to write an empty cell corpus")
    gene_dim = cells[0].expression.size
    header = [f"gene_{i}" for i in range(gene_dim)] + ["cell_type"]
    rows = ([repr(float(v)) for v in c.expression] + [c.cell_type] for c in cells)
    write_text(path, csv_lines(header, rows))


def load_cells(path: str) -> list[CellProfile]:
    """Read a cell corpus. Its cell types must be exactly 0..K-1, every type
    held by at least one cell; K is then the corpus's number of types."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if header[-1:] != ["cell_type"] or len(header) < 2 or not all(
                h == f"gene_{i}" for i, h in enumerate(header[:-1])):
            raise ValidationError(f"{path}: unexpected header")
        gene_dim = len(header) - 1
        cells = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != gene_dim + 1:
                raise ValidationError(f"{path}: row {row_no}: expected {gene_dim + 1} fields")
            try:
                cells.append(CellProfile([float(v) for v in row[:-1]], int(row[-1])))
            except ValueError as exc:   # a bad literal, or CellProfile's ValidationError
                raise ValidationError(f"{path}: row {row_no}: {exc}") from exc
    if not cells:
        raise ValidationError(f"{path}: no data rows")
    labels = [c.cell_type for c in cells]
    types = np.unique(labels)   # sized by the rows, never by a type's value
    if types[-1] != types.size - 1:
        missing = int(np.flatnonzero(types != np.arange(types.size))[0])
        raise ValidationError(f"{path}: row {2 + labels.index(types[-1])}: cell_type "
                              f"{types[-1]}, but no cell has type {missing}; "
                              "types must be 0..K-1")
    return cells


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
    mlp_a: list[DenseLayer]
    classifier: DenseLayer
    loss_history: list[float] = field(default_factory=list)


def _stack_mixes(expr, hot, idx_a, idx_b, lams):
    lam = lams[:, None]
    mixed = lam * expr[idx_a] + (1.0 - lam) * expr[idx_b]
    target = lam * hot[idx_a] + (1.0 - lam) * hot[idx_b]
    return mixed, target


def pretrain_mlp_a(cells: list[CellProfile], encoder: FrozenEncoder,
                   cfg: Stage1Config) -> Stage1Result:
    """Train MLP-A + linear classifier on mixed pairs; the encoder is untouched.

    Each step: draw batch_pairs index pairs and fresh lambdas, mix, encode,
    regress the mixed one-hot targets with mse. Loss per step is recorded.
    """
    if len(cells) < 2:
        raise ValidationError("need at least 2 cells to form pairs")
    if len({c.cell_type for c in cells}) < 2:
        raise ValidationError("need at least 2 distinct cell types (mix targets degenerate)")
    types = np.array([c.cell_type for c in cells])
    num_types = int(types.max()) + 1  # classifier width follows the corpus

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA1]))
    mlp_a = make_mlp(encoder.embed_dim, cfg.feature_dim,
                     hidden_dim=cfg.hidden_dim, n_hidden=2, activation="relu", rng=init_rng)
    classifier = DenseLayer(cfg.feature_dim, num_types, activation="identity", rng=init_rng)
    groups = [layer_group("mlp_a", mlp_a), layer_group("classifier", [classifier])]

    expr = np.stack([c.expression for c in cells])
    hot = (types[:, None] == np.arange(num_types)).astype(np.float64)
    step_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA2]))
    total_steps = cfg.epochs * cfg.steps_per_epoch
    history = []
    with np.errstate(over="ignore", invalid="ignore"):   # see fusion.train_survival
        for step in range(total_steps):
            idx_a = step_rng.integers(0, len(cells), size=cfg.batch_pairs)
            idx_b = step_rng.integers(0, len(cells), size=cfg.batch_pairs)
            lams = step_rng.uniform(0.0, 1.0, size=cfg.batch_pairs)
            mixed, target = _stack_mixes(expr, hot, idx_a, idx_b, lams)
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
    return Stage1Result(mlp_a=mlp_a, classifier=classifier, loss_history=history)


def interpolation_gap(encoder: FrozenEncoder, mlp_a: list[DenseLayer],
                      pairs: list[tuple[CellProfile, CellProfile]], lambdas) -> float:
    """Mean L2 distance between E(mix) and the convex combination of E at
    the endpoints, with E = mlp_a composed on the encoder. 0 = perfectly
    linear latent path."""
    if not pairs:
        raise ValidationError("interpolation_gap needs at least one pair")
    lambdas = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lambdas.size != len(pairs):
        raise ShapeError(f"{len(pairs)} pairs but {lambdas.size} lambdas")
    if ((lambdas < 0) | (lambdas > 1)).any():
        raise ValidationError("lambdas must lie in [0, 1]")
    if len({c.expression.shape for pair in pairs for c in pair}) != 1:
        raise ShapeError("interpolation_gap pairs mix cells of different gene counts")

    def embed(x):
        return mlp_forward(mlp_a, encoder.apply(x))

    a = np.stack([p[0].expression for p in pairs])
    b = np.stack([p[1].expression for p in pairs])
    lam = lambdas[:, None]
    e_mix = embed(lam * a + (1.0 - lam) * b)
    e_interp = lam * embed(a) + (1.0 - lam) * embed(b)
    return float(np.linalg.norm(e_mix - e_interp, axis=1).mean())


def gap_probe_pairs(cells: list[CellProfile], n_pairs: int, seed: int):
    """Deterministic held-out probe set for before/after gap comparisons."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA3]))
    idx_a = rng.integers(0, len(cells), size=n_pairs)
    idx_b = rng.integers(0, len(cells), size=n_pairs)
    lams = rng.uniform(0.0, 1.0, size=n_pairs)
    pairs = [(cells[i], cells[j]) for i, j in zip(idx_a, idx_b)]
    return pairs, lams


def save_stage1(path: str, result: Stage1Result, encoder: FrozenEncoder) -> None:
    """Persist MLP-A (+ classifier and the encoder it was trained against)."""
    tensors = {}
    mlp_a_acts = add_layers(tensors, stack_names("mlp_a", len(result.mlp_a)), result.mlp_a)
    [classifier_act] = add_layers(tensors, ["classifier"], [result.classifier])
    tensors["encoder.weight"] = encoder.weight
    tensors["encoder.bias"] = encoder.bias
    meta = {
        "kind": "stage1",
        "mlp_a_activations": mlp_a_acts,
        "classifier_activation": classifier_act,
        "encoder_activation": encoder.activation,
        "final_loss": result.loss_history[-1] if result.loss_history else None,
    }
    save_checkpoint(path, tensors, meta)


def load_stage1(path: str) -> tuple[list[DenseLayer], DenseLayer, FrozenEncoder]:
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
    return mlp_a, classifier, encoder
