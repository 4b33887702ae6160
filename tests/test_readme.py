"""README names only API that exists.

Every backticked `risjam.<name>` or `<module>.<name>` (a risjam submodule),
every backticked CamelCase name and every backticked call `name(` in the
README's prose must resolve against the risjam modules, so docs that still
name a deleted function, class or method fail here. A documented call of a
module-level function or class must also bind to its signature.
"""

import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import risjam

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = {info.name: importlib.import_module(f"risjam.{info.name}")
           for info in pkgutil.iter_modules(risjam.__path__) if info.name != "__main__"}

# Every class risjam defines, for calls on an instance (`ch.amplitudes("s")`).
CLASSES = [obj for module in MODULES.values() for obj in vars(module).values()
           if inspect.isclass(obj) and obj.__module__.startswith("risjam.")]


def prose_spans() -> list[str]:
    """The backticked spans of README outside its fenced code blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    return re.findall(r"`([^`\n]+(?:\n[^`\n]+)*)`", text)


def references() -> list[str]:
    """The dotted names and called names the prose spans point at, in order, without repeats."""
    names = []
    for span in prose_spans():
        names += re.findall(r"\brisjam(?:\.\w+)+", span)
        names += [m for m in re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.\w+)+)", span)
                  if m.split(".")[0] in MODULES]
        names += re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.\w+)*)\(", span)
        names += re.findall(r"^([A-Z][a-z]\w*)$", span)
    return list(dict.fromkeys(names))


def calls() -> list[tuple[str, list[str]]]:
    """(name, argument texts) of each prose call whose arguments hold no call."""
    found = []
    for span in prose_spans():
        for name, args in re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.\w+)*)\(([^()]*)\)", span):
            found.append((name, [a.strip() for a in args.replace("\n", " ").split(",") if a.strip()]))
    return found


def lookup(name: str):
    """The module-level risjam object a call name starts at, or None."""
    head = name.split(".")[0]
    return next((getattr(m, head) for m in MODULES.values() if hasattr(m, head)), None)


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    if head == "risjam":
        obj = risjam
        if rest and rest[0] in MODULES:
            obj, rest = MODULES[rest[0]], rest[1:]
    elif head in MODULES:
        obj = MODULES[head]
    elif lookup(head) is not None:
        obj = lookup(head)
    elif rest:  # a call on an instance, such as ch.amplitudes(...)
        return any(hasattr(cls, rest[-1]) for cls in CLASSES)
    else:
        return hasattr(builtins, head)
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_references_are_found():
    names = references()
    for expected in ("risjam.scene.ScenarioConfig", "scene.partition_split", "link_powers",
                     "LinkCouplings.report", "PhaseConfig.bits", "ch.amplitudes", "_kernels.coherent_sum"):
        assert expected in names


@pytest.mark.parametrize("name", references())
def test_readme_name_resolves(name):
    assert resolves(name), f"README names {name!r}, which no risjam module defines"


@pytest.mark.parametrize("name", ["risjam.PowerSplit", "scene.RisGeometry", "LinkPowers",
                                  "ChannelSet.path_loss", "LinkCouplings.powers", "powers",
                                  "risjam.scene.save_scenario"])
def test_deleted_names_do_not_resolve(name):
    assert not resolves(name)


@pytest.mark.parametrize("name, args", [pytest.param(name, args, id=name) for name, args in calls()
                                        if "." not in name and lookup(name) is not None])
def test_readme_call_binds_signature(name, args):
    inspect.signature(lookup(name)).bind(*args)


def test_old_power_split_call_does_not_bind():
    with pytest.raises(TypeError):
        inspect.signature(lookup("link_powers")).bind("ch", "gains", "pt", "noise_bob", "noise_eve", "split")
