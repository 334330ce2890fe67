"""Two-branch survival fusion at desk scale.

Cox partial-likelihood training over a genomic branch (SNN on cnv/mutation
features plus a frozen encoder -> MLP-A path for bulk rna) and an image
branch, with contribution-ratio gradient modulation and mixup-based latent
smoothing, plus synthetic data generation and a cross-validation harness.
"""

import os

# Training GEMMs are step-sized, so BLAS worker threads only spin and fight
# the --jobs fold pool for cores; an exported value still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def __getattr__(name: str):
    # __version__ is looked up on its first read and then kept as a global.
    # importlib.metadata and the modules it loads (email, zipfile, ...) cost a
    # process memory and start-up time, and only reports read the version, so
    # processes that write none (the generators, the forked fold workers)
    # never load them.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version
    try:
        value = version("survfuse")
    except PackageNotFoundError:   # running from a source tree without install
        value = "0+unknown"
    globals()["__version__"] = value
    return value


from .errors import (ConcordanceUndefinedError, ConfigError, NumericalError,
                     ShapeError, StateError, SurvfuseError, ValidationError)
from .nnet import (DenseLayer, ParamGroup, layer_group, load_checkpoint,
                   make_mlp, mlp_backward, mlp_forward, mse_loss,
                   save_checkpoint, sgd_step, step_decay_eta)
from .survival import (CoxBatch, build_risk_sets, concordance_index,
                       cox_gradient, cox_loss, fit_linear_cox, probe_c_index)
from .modulation import (ContributionReport, ModulationConfig, apply_modulation,
                         branch_scores, contribution_ratio, modulation_factor)
from .smoothing import (CellCorpus, CellCorpusSpec, FrozenEncoder,
                        Stage1Config, Stage1Result, default_encoder,
                        generate_cells, interpolation_gap, load_cells,
                        load_stage1, pretrain_mlp_a, save_cells, save_stage1)
from .fusion import (FusionModel, build_model, evaluate, load_model,
                     predict_theta, save_model, train_survival)
from .cohort import (Cohort, CohortSpec, FoldPlan, default_hazard_coef,
                     fold_split, generate_cohort, load_cohort, modality_spans,
                     save_cohort, split_folds)

__all__ = [
    "__version__",
    "SurvfuseError", "ShapeError", "StateError", "ValidationError",
    "NumericalError", "ConcordanceUndefinedError", "ConfigError",
    "DenseLayer", "ParamGroup", "layer_group", "make_mlp", "mlp_forward",
    "mlp_backward", "sgd_step", "step_decay_eta", "mse_loss",
    "save_checkpoint", "load_checkpoint",
    "CoxBatch", "build_risk_sets", "cox_loss",
    "cox_gradient", "concordance_index", "fit_linear_cox", "probe_c_index",
    "ModulationConfig", "ContributionReport", "branch_scores",
    "contribution_ratio", "modulation_factor", "apply_modulation",
    "CellCorpus", "FrozenEncoder",
    "default_encoder", "CellCorpusSpec", "generate_cells", "save_cells",
    "load_cells", "Stage1Config", "Stage1Result", "pretrain_mlp_a",
    "interpolation_gap", "save_stage1", "load_stage1",
    "FusionModel", "build_model", "train_survival", "evaluate",
    "predict_theta", "save_model", "load_model",
    "Cohort", "CohortSpec", "generate_cohort", "FoldPlan", "split_folds",
    "fold_split", "save_cohort", "load_cohort", "modality_spans",
    "default_hazard_coef",
]
