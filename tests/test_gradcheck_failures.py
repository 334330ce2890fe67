"""The finite-difference checks can fail: each one catches a broken gradient
in the code it covers, and `survfuse gradcheck` then exits 1."""

import pytest

from survfuse import fusion, gradcheck, nnet
from survfuse.cli import main
from survfuse.survival import cox_gradient

ACTIVATION_BACKWARD = nnet._activation_backward
KRONECKER_BACKWARD = fusion._kronecker_backward


def _break_cox_gradient(monkeypatch):
    monkeypatch.setattr(gradcheck, "cox_gradient",
                        lambda theta, batch: 1.01 * cox_gradient(theta, batch))


def _break_relu_derivative(monkeypatch):
    def backward(upstream, z, kind):
        d = ACTIVATION_BACKWARD(upstream, z, kind)
        return 1.01 * d if kind == "relu" else d

    monkeypatch.setattr(nnet, "_activation_backward", backward)


def _break_kronecker_backward(monkeypatch):
    def backward(up, G, P):
        dG, dP = KRONECKER_BACKWARD(up, G, P)
        return 1.01 * dG, dP

    monkeypatch.setattr(fusion, "_kronecker_backward", backward)


@pytest.mark.parametrize("breaks, check", [
    (_break_cox_gradient, gradcheck.check_cox_gradient),
    (_break_relu_derivative, gradcheck.check_dense_layer),
    (_break_relu_derivative, gradcheck.check_mlp_stack),
    (_break_kronecker_backward,
     lambda: gradcheck.check_fusion_end_to_end("kronecker")),
], ids=["cox", "dense_relu", "mlp_relu", "kronecker"])
def test_a_broken_gradient_fails_its_check(monkeypatch, breaks, check):
    breaks(monkeypatch)
    result = check()
    assert not result.passed
    assert result.line().startswith("FAIL  ")


def test_gradcheck_command_exits_1_when_a_check_fails(monkeypatch, capsys):
    _break_kronecker_backward(monkeypatch)   # the last check covers it alone
    assert main(["gradcheck"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS  ") for line in lines[:4])
    assert lines[4].startswith("FAIL  fusion end-to-end grads (kronecker)")
