"""What importing survfuse loads: the package version is a literal, so no
process, whether a generator, a report-writing command or a forked fold
worker, loads importlib.metadata or the email package it imports;
gen-cohort and train never import survfuse.gradcheck; a run with the image
probe never imports scipy; no process of a modulated train or an ablation
grid imports numpy.ma, which np.median's NaN check loads; and none of them,
pool workers included, loads _hashlib or maps OpenSSL's libcrypto, which
numpy.random reaches through secrets. pytest itself imports
importlib.metadata and _hashlib, so every check of sys.modules runs in a
fresh interpreter. pyproject.toml reads its version from the package."""

import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import survfuse
from survfuse.experiment import tool_version

SRC = str(Path(survfuse.__file__).resolve().parent.parent)

GRID_INI = """\
[run]
k_folds = 2
epochs = 1
hidden_dim = 16

[smoothing]
stage1_epochs = 1
steps_per_epoch = 5

[cohort]
n_patients = 40

[cells]
n_cells = 20
num_types = 2
"""


def _fresh(script: str, *args: str) -> list[list[str]]:
    """The words after "probe" of each line that `script`, run in a new
    interpreter on this source, prints starting with "probe"."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return [line.split()[1:] for line in out.stdout.splitlines()
            if line.startswith("probe ")]


def test_importing_the_cli_leaves_out_package_metadata():
    script = "import sys, survfuse.cli; print('probe', 'importlib.metadata' in sys.modules)"
    assert _fresh(script) == [["False"]]


def test_gen_cohort_runs_without_package_metadata(tmp_path):
    script = """if True:
        import sys
        from survfuse.cli import main
        assert main(["gen-cohort", "--n-patients", "30", "--out", sys.argv[1]]) == 0
        print("probe", "importlib.metadata" in sys.modules)
    """
    assert _fresh(script, str(tmp_path)) == [["False"]]
    assert (tmp_path / "cohort.csv").exists()


def test_fold_workers_fork_without_package_metadata(tmp_path):
    # each worker reports from its pool initializer; the parent reports after
    # the run, when its reports have been written
    script = """if True:
        import multiprocessing, os, sys
        from survfuse import cli, experiment
        root = sys.argv[1]
        multiprocessing.set_start_method("fork")
        init_worker = experiment._init_worker

        def probe(*args):
            print("probe", os.getpid(), "importlib.metadata" in sys.modules, flush=True)
            init_worker(*args)

        experiment._init_worker = probe
        cfg = ["--config", os.path.join(root, "grid.ini")]
        out = ["--out", root]
        assert cli.main(["gen-cohort", *cfg, *out]) == 0
        assert cli.main(["gen-cells", *cfg, *out]) == 0
        assert cli.main(["ablate", *cfg, "--cohort", os.path.join(root, "cohort.csv"),
                         "--cells", os.path.join(root, "cells.csv"), *out,
                         "--jobs", "2"]) == 0
        print("probe", os.getpid(), "importlib.metadata" in sys.modules)
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    *workers, parent = _fresh(script, str(tmp_path))
    assert len(workers) == 1                 # --jobs 2: one worker besides this process
    assert workers[0][0] != parent[0]
    assert workers[0][1] == "False"
    assert parent[1] == "False"              # the reports read a literal version


def test_gen_cohort_and_train_leave_out_gradcheck(tmp_path):
    # only the gradcheck command imports its module
    script = """if True:
        import os, sys
        from survfuse.cli import main
        root = sys.argv[1]
        cfg = ["--config", os.path.join(root, "grid.ini")]
        assert main(["gen-cohort", *cfg, "--out", root]) == 0
        assert main(["train", *cfg, "--cohort", os.path.join(root, "cohort.csv"),
                     "--smoothing", "off", "--modulation", "on", "--out", root]) == 0
        print("probe", "survfuse.gradcheck" in sys.modules)
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    assert _fresh(script, str(tmp_path)) == [["False"]]


def test_image_probe_runs_without_scipy(tmp_path):
    script = """if True:
        import json, os, sys
        from survfuse.cli import main
        root = sys.argv[1]
        cfg = ["--config", os.path.join(root, "grid.ini")]
        assert main(["gen-cohort", *cfg, "--out", root]) == 0
        assert main(["train", *cfg, "--cohort", os.path.join(root, "cohort.csv"),
                     "--smoothing", "off", "--image-probe", "--out", root]) == 0
        with open(os.path.join(root, "report.json")) as fh:
            folds = json.load(fh)["per_fold"]
        print("probe", all("image_probe_c" in fold for fold in folds), "scipy" in sys.modules)
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    assert _fresh(script, str(tmp_path)) == [["True", "False"]]


def test_modulated_train_and_ablate_workers_leave_out_numpy_ma(tmp_path):
    # the wrapper is installed before the pool starts, so each forked worker
    # checks after each of its folds; this process lets the worker go first
    script = """if True:
        import multiprocessing, os, sys, time
        from survfuse import cli, experiment
        root = sys.argv[1]
        multiprocessing.set_start_method("fork")
        parent, run_fold = os.getpid(), experiment.run_single_fold

        def probe(*args):
            if os.getpid() == parent:
                time.sleep(0.05)
            row = run_fold(*args)
            print("probe", os.getpid(), "numpy.ma" in sys.modules, flush=True)
            return row

        experiment.run_single_fold = probe
        cfg = ["--config", os.path.join(root, "grid.ini")]
        cohort = ["--cohort", os.path.join(root, "cohort.csv")]
        assert cli.main(["gen-cohort", *cfg, "--out", root]) == 0
        assert cli.main(["gen-cells", *cfg, "--out", root]) == 0
        assert cli.main(["train", *cfg, *cohort, "--smoothing", "off", "--modulation", "on",
                         "--out", os.path.join(root, "train")]) == 0
        print("probe", os.getpid(), "numpy.ma" in sys.modules, flush=True)
        assert cli.main(["ablate", *cfg, *cohort, "--cells", os.path.join(root, "cells.csv"),
                         "--out", root, "--jobs", "2"]) == 0
        print("probe", os.getpid(), "numpy.ma" in sys.modules)
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    lines = _fresh(script, str(tmp_path))
    # 2 train folds and the train's end, 6 x 2 grid folds and the grid's end
    assert len(lines) == 2 + 1 + 12 + 1
    assert len({pid for pid, _ in lines}) == 2     # this process and one worker
    assert {loaded for _, loaded in lines} == {"False"}


def test_train_and_ablate_processes_leave_out_openssl(tmp_path):
    # each line: pid, whether _hashlib is blocked, and whether libcrypto is
    # mapped ("-" without /proc/self/maps); workers report from the pool
    # initializer, this process after each command
    script = """if True:
        import multiprocessing, os, sys
        from survfuse import cli, experiment
        root = sys.argv[1]
        multiprocessing.set_start_method("fork")
        init_worker = experiment._init_worker

        def report():
            if os.path.exists("/proc/self/maps"):
                with open("/proc/self/maps") as fh:
                    mapped = str(any("libcrypto" in line for line in fh))
            else:
                mapped = "-"
            print("probe", os.getpid(), sys.modules.get("_hashlib") is None, mapped,
                  flush=True)

        def probe(*args):
            report()
            init_worker(*args)

        experiment._init_worker = probe
        cfg = ["--config", os.path.join(root, "grid.ini")]
        cohort = ["--cohort", os.path.join(root, "cohort.csv")]
        assert cli.main(["gen-cohort", *cfg, "--out", root]) == 0
        assert cli.main(["gen-cells", *cfg, "--out", root]) == 0
        assert cli.main(["train", *cfg, *cohort, "--smoothing", "off", "--modulation", "on",
                         "--out", os.path.join(root, "train")]) == 0
        report()
        assert cli.main(["ablate", *cfg, *cohort, "--cells", os.path.join(root, "cells.csv"),
                         "--out", root, "--jobs", "2"]) == 0
        report()
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    lines = _fresh(script, str(tmp_path))
    parent = lines[-1][0]
    # after the train, one worker (--jobs 2) beside this process, after the grid
    assert [pid == parent for pid, _, _ in lines] == [True, False, True]
    for _, blocked, mapped in lines:
        assert blocked == "True"
        assert mapped in ("False", "-")


def test_report_commands_and_pool_workers_leave_out_package_metadata(tmp_path):
    # each line: pid, whether importlib.metadata or any email module is loaded;
    # the worker reports from its pool initializer, this process after the
    # last command
    script = """if True:
        import multiprocessing, os, sys
        from survfuse import cli, experiment
        root = sys.argv[1]
        multiprocessing.set_start_method("fork")
        init_worker = experiment._init_worker

        def report():
            loaded = [name for name in sys.modules
                      if name == "importlib.metadata" or name.split(".")[0] == "email"]
            print("probe", os.getpid(), bool(loaded), flush=True)

        def probe(*args):
            report()
            init_worker(*args)

        experiment._init_worker = probe
        cfg = ["--config", os.path.join(root, "grid.ini")]
        cohort = ["--cohort", os.path.join(root, "cohort.csv")]
        cells = ["--cells", os.path.join(root, "cells.csv")]
        train = os.path.join(root, "train")
        assert cli.main(["gen-cohort", *cfg, "--out", root]) == 0
        assert cli.main(["gen-cells", *cfg, "--out", root]) == 0
        assert cli.main(["pretrain-smooth", *cfg, *cells, "--out", root]) == 0
        assert cli.main(["train", *cfg, *cohort, "--stage1", os.path.join(root, "stage1.ckpt"),
                         "--out", train]) == 0
        assert cli.main(["eval", *cfg, *cohort, "--model", os.path.join(train, "model.ckpt"),
                         "--out", root]) == 0
        assert cli.main(["ablate", *cfg, *cohort, *cells, "--out", root, "--jobs", "2"]) == 0
        report()
    """
    (tmp_path / "grid.ini").write_text(GRID_INI)
    lines = _fresh(script, str(tmp_path))
    assert [pid == lines[-1][0] for pid, _ in lines] == [False, True]   # one worker, then this
    assert [loaded for _, loaded in lines] == ["False", "False"]
    for name in ("stage1_report.json", "train/report.json", "eval.json", "ablation.json"):
        report = json.loads((tmp_path / name).read_text())
        assert report["tool_version"] == tool_version()


def test_version_strings_match_the_package_metadata():
    # pyproject.toml takes its version from the package, the one source
    if sys.version_info >= (3, 11):
        import tomllib
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert (pyproject["tool"]["setuptools"]["dynamic"]["version"]
                == {"attr": "survfuse.__version__"})
    try:
        assert importlib.metadata.version("survfuse") == survfuse.__version__
    except importlib.metadata.PackageNotFoundError:   # run from a source tree
        pass
    assert tool_version() == f"survfuse {survfuse.__version__} / numpy {np.__version__}"


def test_star_import_exports_the_version():
    namespace: dict = {}
    exec("from survfuse import *", namespace)
    assert namespace["__version__"] == survfuse.__version__
