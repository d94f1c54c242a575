"""Every function and public method that ``winfty`` exports is reached from
the command line: ``winfty suite all`` and the README's ``winfty eval``
examples.  An export that only its own unit tests call is either a check
that belongs in a suite or code to delete."""

import inspect
import sys

import winfty
from winfty import cli

README_EVALS = (
    ["[t^(1)*D, t^(2)*D]"],
    ["3/2*t[1,0]*D1^2*D2", "--n", "2", "--subalgebra", "full"],
    ["[(d/dt)^2,[(d/dt)^2,t^(2)*d/dt]] - 8*(d/dt)^3"],
)
MORE_EVALS = (
    ["[t^(2)*D^2, t^(-2)*D] + 2*C", "--subalgebra", "hat"],  # the central element
    ["(t^(1)*D)^0 + 2", "--subalgebra", "full"],  # a scalar times the unit
)

# Exports the command line never calls, each with the reason it stays.
ALLOWED = {
    "as_element",  # bench/workloads.py lifts parsed values with it
    "WeylElement.to_falling",  # bench/tracing.py wraps it by name
    "ParseError.__init__",  # raised on bad input only
}


def _exported_code():
    """{qualified name: code object} for every exported function, and every
    public method, property and constructor of an exported class."""
    out = {}
    for name in dir(winfty):
        obj = getattr(winfty, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isfunction(obj):
            out[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    out[f"{name}.{attr}"] = member.__code__
    return out


def _clear_memos():
    """Empty every lru_cache in winfty: a memo filled by an earlier test would
    hide the calls that compute its values."""
    for name, module in list(sys.modules.items()):
        if name == "winfty" or name.startswith("winfty."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_every_export_is_reached_from_the_command_line(tmp_path, capsys):
    called = set()
    _clear_memos()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(["suite", "all", "--samples", "2", "--window", "2",
                           "--json", str(tmp_path / "all.json")])]
        codes += [cli.main(["eval", *argv]) for argv in README_EVALS + MORE_EVALS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    unreached = sorted(name for name, code in _exported_code().items()
                       if code not in called and name not in ALLOWED)
    assert unreached == []
