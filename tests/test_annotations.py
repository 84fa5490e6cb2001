"""Every annotation of a public function or method in timedata_lab names
something its module binds, so that typing.get_type_hints reads it."""

import importlib
import inspect
import pkgutil
import typing

import timedata_lab
from timedata_lab import geomlink, relativity


def _public_functions():
    """Each public function of each module, and each function (or static or class
    method) that a public class defines."""
    for info in pkgutil.iter_modules(timedata_lab.__path__, "timedata_lab."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn):
                    yield fn


def test_every_public_annotation_resolves():
    unresolved, checked = [], []
    for fn in _public_functions():
        checked.append(fn)
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {exc}")
    assert unresolved == []
    assert {relativity.charge_balance, geomlink.PlanarMotion.__init__} <= set(checked)
