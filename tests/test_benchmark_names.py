"""The names the benchmark reaches in ``hmog`` exist.

``perfbench/tracing.py`` rebinds functions and methods by name, and the
benchmark's workloads build an Adam configuration and pass ``--adam-*``
flags. A rename in ``src/hmog`` would otherwise surface only when the
benchmark runs. The tracer is loaded by path, and nothing under
``perfbench/`` is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hmog import cli
from hmog.optim import AdamConfig
from hmog.pipeline import FitConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
EXPORTING = ("families", "harmonium", "linear_gaussian", "mixture", "hierarchical",
             "optim", "pipeline")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module(name):
    return importlib.import_module(f"hmog.{name}")


def test_timed_targets_resolve():
    for name, attr, _ in load_tracing().TIMED:
        assert callable(getattr(module(name), attr)), f"{name}.{attr}"


def test_counted_methods_resolve_in_the_class_dict():
    for name, cls_name, attr in load_tracing().COUNTED_METHODS:
        assert callable(vars(getattr(module(name), cls_name))[attr]), (
            f"{name}.{cls_name}.{attr}"
        )


def test_restart_function_resolves():
    name, attr = load_tracing().RESTART_FN
    assert callable(getattr(module(name), attr))


def test_adam_configuration_builds():
    adam = AdamConfig(learning_rate=1e-2, steps=30)
    assert FitConfig(method="hmog_fa", latent_dim=5, clusters=8, adam=adam).adam == adam


def test_adam_flags_parse():
    args = cli.build_parser().parse_args([
        "fit", "--input", "in.csv", "--method", "hmog-fa", "--latent-dim", "2",
        "--clusters", "3", "--adam-lr", "1e-3", "--adam-steps", "200", "--seed", "1",
        "--out", "out.json",
    ])
    assert (args.adam_lr, args.adam_steps) == (1e-3, 200)


@pytest.mark.parametrize("name", EXPORTING)
def test_exported_names_exist(name):
    """A merged or deleted name cannot linger in an ``__all__`` list."""
    mod = module(name)
    assert [item for item in mod.__all__ if not hasattr(mod, item)] == []
