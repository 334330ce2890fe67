"""Two-branch survival fusion model.

Genomic branch: cnv/mutation features pass through an SNN (selu stack) to
G1; bulk rna passes through the frozen encoder and, when stage-1 smoothing
was run, the frozen MLP-A to G2; MLP-B maps [G1 || G2] to the genomic
feature G. Image branch: a trainable dense stack maps image features to P.
build_model takes every width from a RunConfig and the cohort, except the
rna width, which is the encoder's gene_dim; the SNN, MLP-B and image stacks
have SNN_HIDDEN, MLP_B_HIDDEN and IMAGE_HIDDEN hidden layers. The fusion
head scores theta per patient:

    concat:     theta = W . [G || P] + b   (W splits into blocks W^G, W^P)
    kronecker:  theta = W . flat([G || 1] outer [P || 1]) + b, computed as the
                bilinear form rowsum(([G || 1] @ W') * [P || 1]) + b with W'
                the weight row as a (g+1) x (p+1) matrix

Training minimizes the negative Cox partial log-likelihood over mini
batches; with modulation on, the per-batch contribution report rescales the
two branch groups' effective learning rates before each update (the head is
never rescaled). Frozen parameters (encoder, MLP-A) are precomputed into
features once per run and never receive gradients.

Every inference forward of n rows (predict_theta, image_branch_features, the
frozen rna path, the epoch-end C-index forward) runs in row chunks, so its
activations take memory per chunk, not per cohort. The stacks' hidden layers
write each chunk's activations into a pair of buffers the model allocates
once, so repeated forwards allocate (and fault in) no fresh hidden
activations.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cohort import Cohort
from .errors import (ConfigError, NumericalError, ShapeError, StateError,
                     ValidationError)
from .modulation import (STEP_LOG_FIELDS, apply_modulation, branch_scores,
                         contribution_ratio, log_step, median)
from .nnet import (DenseLayer, ParamGroup, add_layers, as_matrix,
                   checkpoint_layers, grouped_layers, layer_group, load_checkpoint,
                   meta_typed, mlp_backward, mlp_forward, mlp_layout, save_checkpoint,
                   sgd_step, stack_names, step_decay_eta)
from .smoothing import FrozenEncoder
from .survival import (CoxBatch, build_risk_sets, concordance_index,
                       cox_gradient, cox_loss)

if TYPE_CHECKING:   # config imports this module
    from .config import RunConfig

FUSION_MODES = ("concat", "kronecker")

# Rows per inference chunk. The short tail joins the last chunk, so every
# chunk holds 128-255 rows: OpenBLAS takes other kernels for a few rows, so a
# tail run alone, like chunks of 32 rows, gives other bits than chunks of
# 48-128 rows, which agree with each other. A chunked forward need not match
# a one-pass forward over all rows bit for bit (a Kronecker theta at 1,000
# rows does not).
INFERENCE_CHUNK = 128


def _by_row_chunks(model: "FusionModel", rows_fn, n: int) -> np.ndarray:
    """rows_fn(rows, buffers) for consecutive row slices covering range(n),
    written into one n-row result; buffers is the model's inference workspace
    (see mlp_forward). Each slice holds INFERENCE_CHUNK rows but the last,
    which also takes the tail; fewer than 2 * INFERENCE_CHUNK rows are one
    slice, and n = 0 is one empty slice."""
    stops = [*range(INFERENCE_CHUNK, n - INFERENCE_CHUNK + 1, INFERENCE_CHUNK), n]
    buffers = model._buffers
    out = None
    with np.errstate(over="ignore", invalid="ignore"):   # see train_survival
        for start, stop in zip([0, *stops], stops):
            part = rows_fn(slice(start, stop), buffers)
            if out is None:
                out = np.empty((n, *part.shape[1:]))
            out[start:stop] = part
    return out


def head_width(gen_dim: int, img_dim: int, fusion_mode: str) -> int:
    """The fusion head's input width: G || P, or flat([G || 1] outer [P || 1])."""
    return gen_dim + img_dim if fusion_mode == "concat" else (gen_dim + 1) * (img_dim + 1)


# Hidden layers per trainable stack. The depth asymmetry mirrors the real
# pipeline: shallow, quick-to-train genomic stacks (SNN on engineered
# features) against a deeper image network (stand-in for a heavy vision
# backbone that trains slowly).
SNN_HIDDEN, MLP_B_HIDDEN, IMAGE_HIDDEN = 1, 1, 3


class FusionModel:
    """Holds the trainable stacks, the frozen rna path, and the fusion head."""

    def __init__(self, snn: list[DenseLayer], encoder: FrozenEncoder,
                 mlp_a: list[DenseLayer] | None, mlp_b: list[DenseLayer],
                 image_encoder: list[DenseLayer], head: DenseLayer,
                 fusion_mode: str):
        if fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}, "
                              f"got '{fusion_mode}'")
        self.snn = snn
        self.encoder = encoder
        self.mlp_a = mlp_a
        self.mlp_b = mlp_b
        self.image_encoder = image_encoder
        self.head = head
        self.fusion_mode = fusion_mode
        self.gen_dim = mlp_b[-1].out_dim
        self.img_dim = image_encoder[-1].out_dim
        expected = head_width(self.gen_dim, self.img_dim, fusion_mode)
        if head.in_dim != expected:
            raise ShapeError(f"head expects {head.in_dim} inputs, "
                             f"{fusion_mode} fusion produces {expected}")
        if head.out_dim != 1:
            raise ShapeError("fusion head must have a single output")
        # per-feature standardization of the frozen rna path, fitted on the
        # training split (stage-1 features come out ~10x smaller than raw
        # encoder latents; without this MLP-B under-uses whichever variant
        # is smaller)
        self.g2_mean: np.ndarray | None = None
        self.g2_std: np.ndarray | None = None
        # the chunked inference forwards' workspace: two flat buffers, each
        # the largest chunk (2 * INFERENCE_CHUNK - 1 rows) of the widest
        # hidden layer of the SNN, MLP-A, MLP-B and image stacks; np.empty
        # touches no page until a forward writes one
        stacks = (snn, mlp_a or [], mlp_b, image_encoder)
        size = (2 * INFERENCE_CHUNK - 1) * max(
            (layer.out_dim for stack in stacks for layer in stack[:-1]), default=0)
        self._buffers = (np.empty(size), np.empty(size))

    def check_widths(self, cohort: Cohort) -> None:
        """Each column block of the cohort is as wide as this model's input for it."""
        wants = (self.snn[0].in_dim, self.encoder.gene_dim, self.image_encoder[0].in_dim)
        for letter, x, want in zip("grp", (cohort.x_cnv, cohort.x_rna, cohort.x_img), wants):
            if x.shape[1] != want:
                raise ValidationError(f"the cohort has {x.shape[1]} '{letter}' columns, "
                                      f"the model expects {want}")

    # --- head block views (concat mode) ---

    def _require_concat(self):
        if self.fusion_mode != "concat":
            raise StateError("block decomposition of the head requires concat mode")

    @property
    def head_Wg(self) -> np.ndarray:
        self._require_concat()
        return self.head.weight[0, :self.gen_dim]

    @property
    def head_Wp(self) -> np.ndarray:
        self._require_concat()
        return self.head.weight[0, self.gen_dim:]

    @property
    def head_b(self) -> float:
        return float(self.head.bias[0])

    def param_groups(self) -> dict[str, ParamGroup]:
        """genomic = SNN + MLP-B; image = image encoder; head = fusion head.

        Only genomic/image are modulation targets; the frozen encoder and
        MLP-A contribute no parameters at all.
        """
        return {
            "genomic": layer_group("genomic", self.snn + self.mlp_b),
            "image": layer_group("image", self.image_encoder),
            "head": layer_group("head", [self.head]),
        }

    def frozen_rna_features(self, rna_matrix) -> np.ndarray:
        """Frozen path: encoder, then MLP-A when present (raw latent otherwise),
        then the fitted standardization if one has been fitted; in row chunks."""
        rna = np.asarray(rna_matrix, dtype=np.float64)
        return _by_row_chunks(
            self, lambda rows, buffers: self._frozen_chunk(rna[rows], buffers), len(rna))

    def _frozen_chunk(self, rna: np.ndarray, buffers) -> np.ndarray:
        """The frozen path of one inference chunk, as a fresh array; MLP-A's
        hidden layers write into `buffers` (see mlp_forward)."""
        z = self.encoder.apply(rna)
        feats = mlp_forward(self.mlp_a, z, buffers=buffers) if self.mlp_a else z
        if self.g2_mean is not None:   # feats is this chunk's own array
            feats -= self.g2_mean
            feats /= self.g2_std
        return feats

    def fit_g2_normalization(self, rna_matrix) -> np.ndarray:
        """Fit the frozen-path standardization on training rows only; returns
        those rows' standardized features."""
        self.g2_mean = None
        self.g2_std = None
        feats = self.frozen_rna_features(rna_matrix)
        self.g2_mean = feats.mean(axis=0)
        self.g2_std = np.maximum(feats.std(axis=0), 1e-8)
        feats -= self.g2_mean
        feats /= self.g2_std
        return feats

    # --- batch forward/backward ---

    def forward_batch(self, x_cnv, g2_feat, x_img, *, train: bool = False,
                      buffers: tuple[np.ndarray, np.ndarray] | None = None):
        """Score a batch; returns (theta, G, P). g2_feat is the precomputed
        frozen-path output for these rows. With train=True (backward_batch
        follows) every trainable layer caches its input for the backward
        pass; otherwise no cache changes, and the stacks' hidden layers may
        write into `buffers` (see mlp_forward)."""
        g1 = mlp_forward(self.snn, x_cnv, train=train, buffers=buffers)
        G = mlp_forward(self.mlp_b, np.concatenate([g1, g2_feat], axis=1), train=train,
                        buffers=buffers)
        del g1   # copied into MLP-B's input; an inference chunk frees it here
        P = mlp_forward(self.image_encoder, x_img, train=train, buffers=buffers)
        if self.fusion_mode == "concat":
            theta = self.head.forward(np.concatenate([G, P], axis=1), train=train)[:, 0]
        else:
            theta = _kronecker_forward(self.head, G, P, train=train)
        return theta, G, P

    def backward_batch(self, dtheta) -> None:
        """Backpropagate d(loss)/d(theta) into every trainable gradient buffer."""
        up = np.asarray(dtheta, dtype=np.float64).reshape(-1, 1)
        if self.fusion_mode == "concat":
            up = self.head.backward(up)
            dG = up[:, :self.gen_dim]
            dP = up[:, self.gen_dim:]
        else:
            dG, dP = _kronecker_backward(self.head, up, self.gen_dim)
        # only the SNN's columns of MLP-B's input gradient are used, and no
        # input gradient of the SNN or the image encoder
        d_g1 = mlp_backward(self.mlp_b, dG, input_cols=self.snn[-1].out_dim)
        mlp_backward(self.snn, d_g1, input_cols=0)
        mlp_backward(self.image_encoder, dP, input_cols=0)


def build_model(cfg: RunConfig, dim_cnv_mut: int, dim_image: int, encoder: FrozenEncoder,
                mlp_a: list[DenseLayer] | None = None) -> FusionModel:
    """A fresh model for a cohort with dim_cnv_mut 'g' and dim_image 'p'
    columns: cfg's snn_dim, gen_dim, img_dim, hidden_dim and fusion_mode,
    initialized from cfg.seed. The SNN, MLP-B and image stacks have
    SNN_HIDDEN, MLP_B_HIDDEN and IMAGE_HIDDEN hidden layers. The rna input
    width is the encoder's gene_dim; train_survival and the inference
    functions check every width against their cohort (check_widths)."""
    if mlp_a:
        if mlp_a[0].in_dim != encoder.embed_dim:
            raise ShapeError("MLP-A input dim does not match encoder embed dim")
        g2_dim = mlp_a[-1].out_dim
    else:
        g2_dim = encoder.embed_dim
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF5]))
    # each parameter group's layers are drawn into the group's own buffers, so
    # param_groups() finds them laid out and copies nothing
    snn = mlp_layout(dim_cnv_mut, cfg.snn_dim, cfg.hidden_dim, SNN_HIDDEN, "selu", "selu")
    genomic = grouped_layers(snn + mlp_layout(cfg.snn_dim + g2_dim, cfg.gen_dim, cfg.hidden_dim,
                                              MLP_B_HIDDEN, "relu", "identity"), rng)
    image_encoder = grouped_layers(mlp_layout(dim_image, cfg.img_dim, cfg.hidden_dim,
                                              IMAGE_HIDDEN, "relu", "identity"), rng)
    [head] = grouped_layers(
        [(head_width(cfg.gen_dim, cfg.img_dim, cfg.fusion_mode), 1, "identity")], rng)
    return FusionModel(genomic[:len(snn)], encoder, mlp_a, genomic[len(snn):],
                       image_encoder, head, cfg.fusion_mode)


def _kronecker_forward(head: DenseLayer, G, P, *, train: bool) -> np.ndarray:
    """The head applied to flat([G || 1] outer [P || 1]) without building it:
    theta = rowsum(([G || 1] @ W) * [P || 1]) + b, with W the head's weight
    row as a (g+1) x (p+1) matrix. A non-finite theta raises NumericalError.
    A training forward caches [G || 1 || P || 1] as the head's input and
    theta as its pre-activation."""
    g = G.shape[1]
    ones = np.ones((G.shape[0], 1))
    gp = np.concatenate([G, ones, P, ones], axis=1)
    g_ext, p_ext = gp[:, :g + 1], gp[:, g + 1:]
    products = g_ext @ head.weight.reshape(g + 1, -1)
    products *= p_ext
    theta = products.sum(axis=1)
    theta += head.bias[0]
    if train:
        head._cached_input, head._cached_preact = gp, theta[:, None]
    if not np.isfinite(theta).all():
        raise NumericalError("layer forward produced non-finite output")
    return theta


def _kronecker_backward(head: DenseLayer, up, g: int):
    """Fill the head's gradient buffers from its last training forward and the
    (n, 1) upstream gradient d: dW = ([G || 1] * d)^T @ [P || 1], db = sum(d).
    Returns dG = d * ([P || 1] @ W^T) and dP = d * ([G || 1] @ W), each
    without the last column (the one of the constant 1)."""
    gp = head._cached_input
    if gp is None:
        raise StateError("backward called before a training forward")
    up = as_matrix(up, "upstream gradient")
    if up.shape != (gp.shape[0], 1):
        raise ShapeError(f"upstream gradient has shape {up.shape}, "
                         f"expected {(gp.shape[0], 1)}")
    g_ext, p_ext = gp[:, :g + 1], gp[:, g + 1:]
    W = head.weight.reshape(g + 1, -1)
    np.matmul((g_ext * up).T, p_ext, out=head.grad_weight.reshape(W.shape))
    np.add.reduce(up, axis=0, out=head.grad_bias)
    dG = (p_ext @ W[:g].T) * up
    dP = (g_ext @ W[:, :-1]) * up
    return dG, dP


# ---------------------------------------------------------------------------
# training


# An epoch log holds one column per field, one entry per epoch: the mean loss
# per event of its non-skipped steps, the train C-index at its end, and the
# medians of its step-log columns of the same names (None without reports).
EPOCH_LOG_FIELDS = ("epoch", "loss", "c_index", "rho_g", "factor_g", "factor_p")


@dataclass
class TrainResult:
    epoch_log: dict[str, list]   # EPOCH_LOG_FIELDS, one entry per epoch
    step_log: dict[str, array]   # modulation.STEP_LOG_FIELDS, one entry per report
    skipped_batches: int


def _chunked_theta(model: FusionModel, cohort: Cohort,
                   g2: np.ndarray | None = None) -> np.ndarray:
    """Inference theta of every cohort row, in row chunks. g2 holds the rows'
    frozen-path features when they are already computed; otherwise each
    chunk computes its own, in the same buffers."""
    def theta(rows, buffers):
        feats = model._frozen_chunk(cohort.x_rna[rows], buffers) if g2 is None else g2[rows]
        return model.forward_batch(cohort.x_cnv[rows], feats, cohort.x_img[rows],
                                   buffers=buffers)[0]

    return _by_row_chunks(model, theta, len(cohort))


def predict_theta(model: FusionModel, cohort: Cohort) -> np.ndarray:
    model.check_widths(cohort)
    return _chunked_theta(model, cohort)


def image_branch_features(model: FusionModel, cohort: Cohort) -> np.ndarray:
    """Post-training P features, e.g. for a standalone linear Cox probe."""
    model.check_widths(cohort)
    return _by_row_chunks(
        model, lambda rows, buffers: mlp_forward(model.image_encoder, cohort.x_img[rows],
                                                 buffers=buffers),
        len(cohort))


def train_survival(model: FusionModel, cohort: Cohort, cfg: RunConfig) -> TrainResult:
    """Mini-batch SGD on the negative Cox partial log-likelihood, with cfg's
    epochs, batch_size, eta, seed, modulation and track_rho (which logs
    contribution reports without applying them). Returns an epoch log
    (EPOCH_LOG_FIELDS) and a step log (STEP_LOG_FIELDS), one column per field.
    A cohort block of another width than the model's input for it raises
    ValidationError (check_widths) before any parameter moves.

    Per step: forward the batch, backpropagate the Cox gradient, optionally
    rescale the two branch groups from the contribution report, update.
    Contribution reports need the concat head: with a kronecker head, the
    first step raises StateError before any parameter moves. An
    all-censored batch contributes nothing and is skipped (counted). The
    eta schedule is a function of the step position, skipped or not.
    """
    model.check_widths(cohort)
    n = len(cohort)
    # training rows only — no fold leakage; the frozen path never changes mid-run
    g2_all = model.fit_g2_normalization(cohort.x_rna)

    groups = model.param_groups()
    group_list = list(groups.values())
    want_reports = cfg.modulation.enabled or cfg.track_rho

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57E9]))
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    epoch_log = {key: [] for key in EPOCH_LOG_FIELDS}
    log = {key: array(code) for key, code in STEP_LOG_FIELDS.items()}
    skipped = 0
    # an overflow ends in a non-finite value that a check names with its
    # epoch and step; numpy's warning would only print ahead of that error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = shuffle_rng.permutation(n)
            epoch_loss_sum = 0.0
            epoch_event_count = 0
            first = len(log["step"])
            for step_index, start in enumerate(range(0, n, cfg.batch_size),
                                               epoch * steps_per_epoch):
                idx = perm[start:start + cfg.batch_size]
                sub = CoxBatch(cohort.times[idx], cohort.events[idx])
                if sub.degenerate:
                    skipped += 1
                    continue
                try:
                    theta, G, P = model.forward_batch(cohort.x_cnv[idx], g2_all[idx],
                                                      cohort.x_img[idx], train=True)
                    lse = sub.log_risk_denominators(theta)
                    loss = cox_loss(theta, sub, lse)
                    if not np.isfinite(loss):
                        raise NumericalError("non-finite loss")
                    model.backward_batch(cox_gradient(theta, sub, lse))
                    if want_reports:
                        s_g, s_p = branch_scores(model.head_Wg, G, model.head_Wp, P,
                                                 model.head_b)
                        report = contribution_ratio(s_g, s_p, sub, cfg.modulation)
                        log_step(log, epoch, step_index, report)
                        if cfg.modulation.enabled and step_index >= cfg.modulation.warmup_steps:
                            apply_modulation(report, groups["genomic"], groups["image"])
                    sgd_step(group_list, step_decay_eta(cfg.eta, step_index, total_steps))
                except NumericalError as exc:
                    raise NumericalError(f"epoch {epoch}, step {step_index}: {exc}") from exc
                epoch_loss_sum += loss
                epoch_event_count += sub.n_events
            try:
                theta_all = _chunked_theta(model, cohort, g2_all)
            except NumericalError as exc:
                raise NumericalError(f"epoch {epoch}, epoch-end forward: {exc}") from exc
            c_index = concordance_index(theta_all, cohort.times, cohort.events)
            mean_loss = epoch_loss_sum / epoch_event_count if epoch_event_count else 0.0
            values = (epoch, mean_loss, c_index,
                      *(median(log[key][first:]) for key in EPOCH_LOG_FIELDS[3:]))
            for column, value in zip(epoch_log.values(), values):
                column.append(value)
    return TrainResult(epoch_log=epoch_log, step_log=log, skipped_batches=skipped)


def evaluate(model: FusionModel, cohort: Cohort) -> dict:
    """C-index and per-event mean Cox loss over one risk-set structure.

    Raises ConcordanceUndefinedError when the set has no comparable pair.
    """
    batch = build_risk_sets(cohort)
    theta = predict_theta(model, cohort)
    c = concordance_index(theta, batch.times, batch.events)
    loss = cox_loss(theta, batch)
    mean_loss = loss / batch.n_events if batch.n_events else 0.0
    return {"c_index": c, "mean_loss": mean_loss}


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: str, model: FusionModel) -> None:
    tensors: dict[str, np.ndarray] = {}
    manifest: dict[str, list[str]] = {}
    activations: dict[str, list[str]] = {}
    for gname in ("snn", "mlp_b", "image_encoder"):
        layers = getattr(model, gname)
        manifest[gname] = stack_names(gname, len(layers))
        activations[gname] = add_layers(tensors, manifest[gname], layers)
    manifest["head"] = ["head"]
    add_layers(tensors, manifest["head"], [model.head])
    tensors["encoder.weight"] = model.encoder.weight
    tensors["encoder.bias"] = model.encoder.bias
    mlp_a_acts = (add_layers(tensors, stack_names("mlp_a", len(model.mlp_a)), model.mlp_a)
                  if model.mlp_a else None)
    if model.g2_mean is not None:
        tensors["g2_norm.mean"] = model.g2_mean
        tensors["g2_norm.std"] = model.g2_std
    meta = {"kind": "fusion_model", "fusion_mode": model.fusion_mode,
            "groups": manifest, "activations": activations,
            "encoder_activation": model.encoder.activation,
            "mlp_a_activations": mlp_a_acts,
            "g2_normalized": model.g2_mean is not None}
    save_checkpoint(path, tensors, meta)


def load_model(path: str) -> FusionModel:
    meta, tensors = load_checkpoint(path)
    if meta.get("kind") != "fusion_model":
        raise ValidationError(f"{path}: not a fusion-model checkpoint")

    def stack(gname: str, in_dim: int | None = None) -> list[DenseLayer]:
        acts = meta_typed(path, f"activations.{gname}", groups[gname], list)
        if not acts:
            raise ValidationError(f"{path}: meta 'activations.{gname}' lists no layer")
        return checkpoint_layers(path, tensors, stack_names(gname, len(acts)), acts, in_dim)

    try:
        groups = meta_typed(path, "activations", meta["activations"], dict)
        mode = meta["fusion_mode"]
        if mode not in FUSION_MODES:
            raise ValidationError(f"{path}: meta 'fusion_mode' is {mode!r}, "
                                  f"expected one of {FUSION_MODES}")
        encoder = FrozenEncoder(tensors["encoder.weight"], tensors["encoder.bias"],
                                meta.get("encoder_activation", "tanh"))
        mlp_a = None
        if meta.get("mlp_a_activations"):
            mlp_acts = meta_typed(path, "mlp_a_activations",
                                  meta["mlp_a_activations"], list)
            mlp_a = checkpoint_layers(path, tensors, stack_names("mlp_a", len(mlp_acts)),
                                      mlp_acts, encoder.embed_dim)
        g2_dim = mlp_a[-1].out_dim if mlp_a else encoder.embed_dim
        snn = stack("snn")
        mlp_b = stack("mlp_b", snn[-1].out_dim + g2_dim)
        image_encoder = stack("image_encoder")
        head_in = head_width(mlp_b[-1].out_dim, image_encoder[-1].out_dim, mode)
        [head] = checkpoint_layers(path, tensors, ["head"], ["identity"], head_in)
        if head.out_dim != 1:
            raise ValidationError(f"{path}: tensor 'head.weight' has {head.out_dim} "
                                  "outputs, expected 1")
        model = FusionModel(snn, encoder, mlp_a, mlp_b, image_encoder, head, mode)
        if meta.get("g2_normalized"):
            for name in ("g2_norm.mean", "g2_norm.std"):
                if tensors[name].shape != (g2_dim,):
                    raise ValidationError(
                        f"{path}: tensor '{name}' has shape {tensors[name].shape}, "
                        f"expected ({g2_dim},) for the {g2_dim}-wide frozen rna path")
            model.g2_mean = tensors["g2_norm.mean"]
            model.g2_std = tensors["g2_norm.std"]
    except KeyError as exc:
        raise ValidationError(f"{path}: checkpoint has no entry {exc}") from exc
    except ShapeError as exc:   # the encoder's weight and bias disagree
        raise ValidationError(f"{path}: {exc}") from exc
    return model
