"""Synthetic multi-modal survival cohorts.

Each patient is driven by a latent vector z ~ N(0, I). The true log hazard
is h = hazard_coef . z; survival time is Exponential(rate = exp(h)), so a
Cox model is exactly well-specified and ranking by h is the ceiling any
score can reach. Censoring times are uniform on [0, c] with c calibrated
by bisection to hit the requested censored fraction.

Modality features are fixed seeded linear maps of a *window* of z plus
Gaussian noise. The three windows overlap but differ:

    cnv_mut <- z[first half]        rna <- z[middle half]        image <- z[last half]

so part of the hazard signal is reachable only through the rna path (it
rewards a usable encoder latent space) and part only through the image
branch (it rewards balanced training). noise_g scales the cnv_mut and rna
noise jointly, noise_p the image noise, each at most MAX_NOISE.

The default hazard coefficients are weighted by window membership —
genomic-only latent dims carry the most hazard, dims the image window
shares with a genomic window carry slightly less, image-only dims the
least. Together with noise_p >> noise_g this makes the genomic side
dominant by construction while leaving the image branch real (weaker)
signal to recover.
"""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError, csv_lines, open_text, write_text

_CENSOR_TOL = 0.02      # calibration stops when within this of the target
_CENSOR_MAX_SCALE = 1e12
# in units of the signal: at 100 a block's probe is at chance; at 1e3 training diverged
MAX_NOISE = 100.0
# the largest feature magnitude load_cohort accepts. At MAX_NOISE the generator
# wrote |x| up to 507 in 20,000 rows; a tiny modulated train (2 folds, 1 epoch,
# 40 patients, seeds 0-4) with a cohort's image, genomic or all blocks scaled
# up first diverged at |x| = 748, and 12 of its 15 runs past 1e3 or not at all
MAX_FEATURE = 1e3


@dataclass(eq=False)
class Cohort:
    """One row per patient, in file order: ids, observed times, event flags,
    and the cnv/mutation, rna and image feature blocks (rows x columns,
    C-contiguous float64)."""

    ids: np.ndarray
    times: np.ndarray
    events: np.ndarray
    x_cnv: np.ndarray
    x_rna: np.ndarray
    x_img: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object).reshape(-1)
        self.times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        self.events = np.asarray(self.events, dtype=bool).reshape(-1)
        n = self.ids.size
        if not self.times.size == self.events.size == n:
            raise ShapeError(f"{n} ids, {self.times.size} times, {self.events.size} events")
        for name in ("x_cnv", "x_rna", "x_img"):
            block = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != n:
                raise ShapeError(f"{name} has shape {block.shape}, expected {n} rows")
            setattr(self, name, block)
        bad = np.flatnonzero(~(np.isfinite(self.times) & (self.times > 0.0)))
        if bad.size:
            raise ValidationError(f"record '{self.ids[bad[0]]}': time must be positive, "
                                  f"got {self.times[bad[0]]}")

    def __len__(self) -> int:
        return self.ids.size

    def take(self, rows) -> "Cohort":
        """The cohort of these rows, in the order given."""
        return Cohort(self.ids[rows], self.times[rows], self.events[rows],
                      self.x_cnv[rows], self.x_rna[rows], self.x_img[rows])


def modality_spans(latent_dim: int) -> tuple[range, range, range]:
    """Three half-width windows: leading, centered, trailing."""
    w = max(1, (latent_dim + 1) // 2)
    mid = (latent_dim - w) // 2
    return (range(0, w), range(mid, mid + w), range(latent_dim - w, latent_dim))


def default_hazard_coef(latent_dim: int) -> np.ndarray:
    """Window-weighted hazard coefficients: genomic-only dims 1.2x a base of
    1.5/sqrt(latent_dim), dims shared between a genomic window and the image
    window 0.9x, image-only dims 0.5x."""
    span_g, span_r, span_p = modality_spans(latent_dim)
    genomic = set(span_g) | set(span_r)
    base = 1.5 / np.sqrt(latent_dim)
    coef = np.empty(latent_dim)
    for i in range(latent_dim):
        if i not in span_p:
            coef[i] = 1.2 * base
        elif i in genomic:
            coef[i] = 0.9 * base
        else:
            coef[i] = 0.5 * base
    return coef


@dataclass
class CohortSpec:
    n_patients: int = 600
    latent_dim: int = 8
    dim_cnv_mut: int = 32
    dim_rna: int = 64
    dim_image: int = 32
    noise_g: float = 0.3
    noise_p: float = 1.2
    censor_fraction: float = 0.3
    hazard_coef: np.ndarray | None = None   # default: window-weighted, see default_hazard_coef
    seed: int = 0
    share_maps: bool = False  # image reuses the cnv_mut map/window (symmetry probe)

    def __post_init__(self):
        if min(self.n_patients, self.latent_dim, self.dim_cnv_mut,
               self.dim_rna, self.dim_image) <= 0:
            raise ValidationError("all cohort counts and dims must be positive")
        for key, noise in (("noise_g", self.noise_g), ("noise_p", self.noise_p)):
            if not 0.0 <= noise <= MAX_NOISE:
                raise ValidationError(f"{key} must lie in [0, {MAX_NOISE:g}], got {noise}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.censor_fraction < 1.0:
            raise ValidationError(
                f"censor_fraction must lie in [0, 1), got {self.censor_fraction}")
        if self.hazard_coef is None:
            self.hazard_coef = default_hazard_coef(self.latent_dim)
        else:
            self.hazard_coef = np.asarray(self.hazard_coef, dtype=np.float64).reshape(-1)
            if self.hazard_coef.size != self.latent_dim:
                raise ValidationError(
                    f"hazard_coef has {self.hazard_coef.size} entries, "
                    f"latent_dim is {self.latent_dim}")
            if not np.isfinite(self.hazard_coef).all():
                raise ValidationError("hazard_coef entries must be finite")
        if self.share_maps and self.dim_image != self.dim_cnv_mut:
            raise ValidationError("share_maps requires dim_image == dim_cnv_mut")


def _modality_maps(spec: CohortSpec):
    span_g, span_r, span_p = modality_spans(spec.latent_dim)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC0]))
    scale = lambda span: 1.0 / np.sqrt(len(span))
    a_cnv = rng.normal(0.0, scale(span_g), size=(spec.dim_cnv_mut, len(span_g)))
    a_rna = rng.normal(0.0, scale(span_r), size=(spec.dim_rna, len(span_r)))
    a_img = rng.normal(0.0, scale(span_p), size=(spec.dim_image, len(span_p)))
    if spec.share_maps:
        a_img, span_p = a_cnv, span_g
    return (a_cnv, span_g), (a_rna, span_r), (a_img, span_p)


def generate_cohort(spec: CohortSpec) -> Cohort:
    """Draw the cohort; a pure function of the spec (seed included).

    Every patient consumes an independent RNG stream keyed by
    (seed, patient index), so generation order cannot leak between rows.
    """
    (a_cnv, sp_g), (a_rna, sp_r), (a_img, sp_p) = _modality_maps(spec)
    n = spec.n_patients
    survival = np.empty(n)
    censor_u = np.empty(n)
    x_cnv = np.empty((n, spec.dim_cnv_mut))
    x_rna = np.empty((n, spec.dim_rna))
    x_img = np.empty((n, spec.dim_image))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xC1, i]))
        z = rng.normal(size=spec.latent_dim)
        h = float(spec.hazard_coef @ z)
        survival[i] = rng.exponential(scale=np.exp(-h))
        censor_u[i] = max(rng.uniform(), 1e-12)
        x_cnv[i] = a_cnv @ z[sp_g] + spec.noise_g * rng.normal(size=spec.dim_cnv_mut)
        x_rna[i] = a_rna @ z[sp_r] + spec.noise_g * rng.normal(size=spec.dim_rna)
        x_img[i] = a_img @ z[sp_p] + spec.noise_p * rng.normal(size=spec.dim_image)

    censor_time = censor_u * _calibrate_censor_scale(survival, censor_u,
                                                     spec.censor_fraction)
    width = len(str(n - 1))
    return Cohort(ids=[f"p{i:0{width}d}" for i in range(n)],
                  times=np.minimum(survival, censor_time),
                  events=survival <= censor_time,
                  x_cnv=x_cnv, x_rna=x_rna, x_img=x_img)


def _calibrate_censor_scale(survival, censor_u, target: float) -> float:
    """Bisect the censor-time scale c so that mean(u*c < T) ~ target.

    The censored fraction is non-increasing in c and steps in units of 1/n,
    so the bisection lands within 1/n of the target unless the bracket
    cannot be established.
    """
    frac = lambda c: float(np.mean(censor_u * c < survival))
    lo, hi = 1e-9, 1.0
    while frac(hi) > target:
        hi *= 10.0
        if hi > _CENSOR_MAX_SCALE:
            raise ValidationError(
                f"censor calibration failed: target {target} unreachable "
                f"(scale bound {_CENSOR_MAX_SCALE} exceeded)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(frac(mid) - target) <= min(_CENSOR_TOL, 1.0 / survival.size):
            return mid
        if frac(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi   # frac(hi) <= target and the gap is at most one step of 1/n


# ---------------------------------------------------------------------------
# cross-validation folds


@dataclass
class FoldPlan:
    """k folds and each cohort row's held-out fold."""

    k: int
    fold_of: np.ndarray


def _has_comparable_pair(times: np.ndarray, events: np.ndarray) -> bool:
    """Whether some event comes strictly before the latest time (the
    C-index's comparable pair)."""
    return bool(events.any()) and times[events].min() < times.max()


def split_folds(cohort: Cohort, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle + round robin, then swap repairs until every fold's
    test split holds at least one uncensored row, then until each holds a
    comparable pair. A fold that already has one is touched only as a donor."""
    n = len(cohort)
    if k < 2:
        raise ValidationError("k must be at least 2")
    if n < k:
        raise ValidationError(f"cannot split {n} records into {k} folds")
    n_events = int(cohort.events.sum())
    if n_events < k:
        raise ValidationError(
            f"only {n_events} uncensored records for {k} folds; "
            "every fold needs at least one")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xF01D]))
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[rng.permutation(n)] = np.arange(n) % k
    event_count = np.bincount(fold_of[cohort.events], minlength=k)
    # repair: move the first uncensored row of the richest fold into each
    # empty fold, swapping that fold's first censored row back to keep sizes
    for fold in range(k):
        if event_count[fold] == 0:
            donor = int(np.argmax(event_count))
            if event_count[donor] < 2:
                raise ValidationError("fold repair failed: events too scarce")
            take = np.flatnonzero((fold_of == donor) & cohort.events)[0]
            give = np.flatnonzero((fold_of == fold) & ~cohort.events)[0]
            fold_of[take], fold_of[give] = fold, donor
            event_count[donor] -= 1
            event_count[fold] += 1
    for fold in range(k):
        held_out = fold_of == fold
        if not (_has_comparable_pair(cohort.times[held_out], cohort.events[held_out])
                or _swap_in_an_earlier_event(cohort, fold_of, fold)):
            raise ValidationError(
                f"k_folds = {k}: no fold plan found that gives every held-out fold "
                f"a comparable pair (an event before its latest time) from {n} rows "
                f"with {n_events} events; lower k_folds")
    return FoldPlan(k=k, fold_of=fold_of)


def _swap_in_an_earlier_event(cohort: Cohort, fold_of: np.ndarray, fold: int) -> bool:
    """Swap into `fold` the first event, in row order, of another fold that
    dates before this fold's latest time, for the first row of this fold
    that leaves both folds a comparable pair; False if no such swap exists."""
    times, events = cohort.times, cohort.events
    rows = np.flatnonzero(fold_of == fold)
    for take in np.flatnonzero(events & (times < times[rows].max()) & (fold_of != fold)):
        donor = fold_of[take]
        for give in rows:
            fold_of[take], fold_of[give] = fold, donor
            if all(_has_comparable_pair(times[fold_of == f], events[fold_of == f])
                   for f in (fold, donor)):
                return True
            fold_of[take], fold_of[give] = donor, fold
    return False


def fold_split(cohort: Cohort, plan: FoldPlan, fold: int) -> tuple[Cohort, Cohort]:
    """(train, test) cohorts for one held-out fold, rows in cohort order."""
    if not 0 <= fold < plan.k:
        raise ValidationError(f"fold {fold} outside [0, {plan.k})")
    if plan.fold_of.size != len(cohort):
        raise ValidationError(f"the fold plan labels {plan.fold_of.size} rows, "
                              f"the cohort has {len(cohort)}")
    held_out = plan.fold_of == fold
    return cohort.take(np.flatnonzero(~held_out)), cohort.take(np.flatnonzero(held_out))


# ---------------------------------------------------------------------------
# CSV round trip


def save_cohort(path: str, cohort: Cohort) -> None:
    if not len(cohort):
        raise ValidationError("refusing to write an empty cohort")
    blocks = (cohort.x_cnv, cohort.x_rna, cohort.x_img)
    header = ["id", "time", "event"] + [f"{letter}{i}" for letter, x in zip("grp", blocks)
                                        for i in range(x.shape[1])]
    rows = ([cohort.ids[i], repr(float(cohort.times[i])), int(cohort.events[i])]
            + [repr(v) for x in blocks for v in x[i].tolist()] for i in range(len(cohort)))
    write_text(path, csv_lines(header, rows))


def _header_dims(header: list[str], path: str) -> tuple[int, int, int]:
    if header[:3] != ["id", "time", "event"]:
        raise ValidationError(f"{path}: header must start with id,time,event")
    counts = {"g": 0, "r": 0, "p": 0}
    for col in header[3:]:
        kind, idx = col[:1], col[1:]
        if kind not in counts or idx != str(counts[kind]):
            raise ValidationError(f"{path}: unexpected column '{col}'")
        counts[kind] += 1
    if min(counts.values()) == 0:
        raise ValidationError(f"{path}: every modality needs at least one column")
    return counts["g"], counts["r"], counts["p"]


def load_cohort(path: str) -> Cohort:
    """The cohort in a CSV file, rows in file order; the first bad row raises."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        dg, dr, dp = _header_dims(header, path)
        ids, times, events = [], [], []
        spans = (slice(0, dg), slice(dg, dg + dr), slice(dg + dr, None))
        blocks = [array.array("d") for _ in spans]   # g, r, p values, row by row
        seen = set()
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 3 + dg + dr + dp:
                raise ValidationError(
                    f"{path}: row {row_no}: expected {3 + dg + dr + dp} fields, "
                    f"got {len(row)}")
            if row[0] in seen:
                raise ValidationError(f"{path}: row {row_no}: duplicate id '{row[0]}'")
            seen.add(row[0])
            try:
                time = float(row[1])
            except ValueError as exc:
                raise ValidationError(f"{path}: row {row_no}: bad time '{row[1]}'") from exc
            if row[2] not in ("0", "1"):
                raise ValidationError(
                    f"{path}: row {row_no}: event must be 0 or 1, got '{row[2]}'")
            try:
                vals = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ValidationError(f"{path}: row {row_no}: {exc}") from exc
            if not (all(map(math.isfinite, vals)) and max(map(abs, vals)) <= MAX_FEATURE):
                i = next(i for i, v in enumerate(vals) if not abs(v) <= MAX_FEATURE)
                problem = ("is not finite" if not math.isfinite(vals[i]) else
                           f"is {vals[i]!r}, past the feature bound {MAX_FEATURE:g}")
                raise ValidationError(f"{path}: row {row_no}: column '{header[3 + i]}' {problem}")
            if not (math.isfinite(time) and time > 0.0):
                raise ValidationError(f"{path}: row {row_no}: record '{row[0]}': "
                                      f"time must be positive, got {time}")
            ids.append(row[0])
            times.append(time)
            events.append(row[2] == "1")
            for block, span in zip(blocks, spans):
                block.extend(vals[span])
    if not ids:
        raise ValidationError(f"{path}: no data rows")
    return Cohort(ids, times, events,
                  *(np.frombuffer(block).reshape(len(ids), -1) for block in blocks))
