"""The traced benchmark run wraps package functions and methods by name.

perfbench/tracer.py looks each traced name up in the package at install
time: a function in its module, a method in its own class's __dict__. A
refactor that renames a traced function, or moves a traced method into a
base class, breaks the traced run. This test loads the tracer by path,
installs it on the package and removes it again."""

import importlib.util
import sys
from pathlib import Path

import tatehk

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def traced_names(tracer_mod):
    """(owner, name) of every traced name: a module and a function, or a
    class and a method."""
    out = []
    for mod_name, attr in tracer_mod.SPANS + tracer_mod.COUNTS:
        owner = sys.modules[f"tatehk.{mod_name}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out.append((owner, attr))
    return out


def bindings(owners):
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_installs_every_traced_name_and_restores_it():
    tracer_mod = load_tracer()
    targets = traced_names(tracer_mod)
    for owner, name in targets:
        assert name in vars(owner), f"{owner.__name__}.{name} is not where the tracer looks"
    originals = [(owner, name, vars(owner)[name]) for owner, name in targets]
    owners = [m for k, m in sys.modules.items()
              if (k == "tatehk" or k.startswith("tatehk.")) and m is not None]
    owners += {owner for owner, _ in targets if isinstance(owner, type)}
    before = bindings(owners)

    tracer = tracer_mod.Tracer(tatehk)
    try:
        tracer.install()
        for owner, name, orig in originals:
            now = vars(owner)[name]
            assert now is not orig and now.__wrapped__ is orig, \
                f"{owner.__name__}.{name} was not wrapped"
    finally:
        tracer.remove()

    after = bindings(owners)
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        for name, val in names.items():
            assert after[key][name] is val, f"{name} was not put back"
