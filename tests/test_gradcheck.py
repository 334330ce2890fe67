"""The finite-difference verification suite must pass on its own."""

import numpy as np
import pytest

from survfuse import fusion
from survfuse.gradcheck import (check_fusion_end_to_end, fd_param_gradient,
                                relative_error, run_all)


def test_relative_error_conventions():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert relative_error([0.0], [0.0]) == 0.0   # both-zero guard
    assert relative_error([1.0], [2.0]) == 0.5


def test_fd_gradient_on_a_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    grad = fd_param_gradient(lambda: float(0.5 * (x ** 2).sum()), x)
    assert np.allclose(grad, x, atol=1e-8)


def test_run_all_passes():
    results = run_all(seed=0)
    assert len(results) == 5
    for res in results:
        assert res.passed, res.line()
        assert res.max_rel_err <= res.tolerance
        assert res.instances > 0


def test_check_names_cover_the_pipeline():
    names = [r.name for r in run_all(seed=1)]
    assert any("cox" in n for n in names)
    assert any("dense" in n for n in names)
    assert any("mlp" in n for n in names)
    assert any("concat" in n for n in names)
    assert any("kronecker" in n for n in names)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mode", fusion.FUSION_MODES)
def test_fusion_end_to_end_passes_at_the_shipped_depths(mode, seed):
    # build_model's stacks, relu image stack included, at hidden width 8:
    # every draw must place its inputs away from the kinks
    res = check_fusion_end_to_end(mode, seed)
    assert res.passed, res.line()
