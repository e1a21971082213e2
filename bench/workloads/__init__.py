"""The benchmark's workloads, by name."""

import importlib

NAMES = {"geometry": "geometry", "tensor": "tensor", "adelic": "adelic", "cli-cold": "clicold"}


def load(name: str):
    return importlib.import_module(f"workloads.{NAMES[name]}")
