"""The package's public names: what nmpo exports, and what it no longer does."""

import importlib
import pkgutil

import nmpo

RETIRED = (
    "kernel_time",
    "kernel_freq_real",
    "DeltaAtOrigin",
    "parse_params_text",
    "load_params",
    "validate",
    "ou_noise_step",
    "MemoryKernel",
    "diffusion_matrix",
    "DiffusionMatrix",
    "EmbeddedMatrix",
    "LABELS_FULL",
    "LABELS_MARKOV",
    "QUAD_LABELS",
)


def test_star_import_gives_every_public_name_once():
    namespace = {}
    exec("from nmpo import *", namespace)
    assert len(set(nmpo.__all__)) == len(nmpo.__all__)
    assert [name for name in nmpo.__all__ if name not in namespace] == []


def test_retired_names_are_gone_from_the_package_and_its_modules():
    modules = [nmpo] + [
        importlib.import_module(f"nmpo.{info.name}") for info in pkgutil.iter_modules(nmpo.__path__)
    ]
    assert len(modules) > 5
    left = [(m.__name__, name) for m in modules for name in RETIRED if hasattr(m, name)]
    assert left == []
