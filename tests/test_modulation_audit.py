"""tools/modulation_audit.py on a tiny cohort: a deterministic six-arm table
whose modulated arm is the plain cross-validation run, and a shuffled arm
that puts survfuse.fusion.apply_modulation back when it is done."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from survfuse import fusion, modulation
from survfuse.cohort import CohortSpec, generate_cohort
from survfuse.config import load_run_config
from survfuse.experiment import run_cross_validation, run_stage1
from survfuse.smoothing import CellCorpusSpec, generate_cells

TOOL = Path(__file__).resolve().parent.parent / "tools" / "modulation_audit.py"

TINY_INI = """\
[run]
k_folds = 2
epochs = 2
hidden_dim = 16

[smoothing]
stage1_epochs = 1
steps_per_epoch = 5
"""


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("modulation_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    ini = tmp_path_factory.mktemp("audit") / "tiny.ini"
    ini.write_text(TINY_INI)
    base = load_run_config(str(ini), modulation_enabled=True, image_probe=True)
    cells = generate_cells(CellCorpusSpec(n_cells=20, num_types=2, seed=0))
    return base, cells, CohortSpec(n_patients=80)


def test_audit_table_is_deterministic_and_has_six_arms(tool, tiny):
    base, cells, cohort_spec = tiny
    table = tool.audit([3], base, cells, cohort_spec)
    assert table == tool.audit([3], base, cells, cohort_spec)
    assert [row["arm"] for row in table] == list(tool.ARMS)
    assert len(tool.ARMS) == 6
    for row in table:
        assert 0.0 <= row["c_index"] <= 1.0 and 0.0 <= row["image_probe"] <= 1.0
        for key in ("rho_g_negative", "factor_g_small", "factor_p_small"):
            assert 0.0 <= row[key] <= 1.0
    rows = {row["arm"]: row for row in table}
    # the shuffled arm applies the modulated arm's own factors, so as often small
    for key in ("factor_g_small", "factor_p_small"):
        assert rows["shuffled"][key] == rows["modulated"][key]
    assert fusion.apply_modulation is modulation.apply_modulation
    assert tool.markdown_row(table[0]).startswith("| 3 | unmodulated | ")


def test_modulated_arm_is_the_plain_cross_validation_run(tool, tiny):
    base, cells, cohort_spec = tiny
    rows = {row["arm"]: row for row in tool.audit([1], base, cells, cohort_spec)}
    cfg = dataclasses.replace(base, seed=1)
    cohort = generate_cohort(CohortSpec(n_patients=80, seed=1))
    direct = run_cross_validation(cohort, cfg, run_stage1(cells, cfg)).report
    assert rows["modulated"]["c_index"] == direct["c_index_mean"]
    assert rows["modulated"]["image_probe"] == direct["image_probe_mean"]


def test_replayed_factors_restore_apply_modulation_after_an_error(tool):
    with pytest.raises(RuntimeError, match="inside"):
        with tool.replayed_factors([0.5], [1.0], seed=0):
            assert fusion.apply_modulation is not modulation.apply_modulation
            raise RuntimeError("inside")
    assert fusion.apply_modulation is modulation.apply_modulation
