"""The suite dispatcher: naming, determinism, report structure."""

import dataclasses
import hashlib
import pathlib
import re
from fractions import Fraction

import pytest

from winfty import cli, suites
from winfty.report import GRAMMAR_VERSION
from winfty.scalars import Ring
from winfty.suites import (_SUITES, SUITE_NAMES, SuiteOptions,
                           UnknownSuiteError, run_suite)


def test_the_zero_module_vector_reads_0():
    assert suites._vec_text({}) == "0"


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("alpha", ("formal", [Fraction(1, 2), Fraction(1, 3)]),
                         ids=("alpha-formal", "alpha-vector"))
def test_all_checks_every_option_before_any_suite_runs(alpha, monkeypatch):
    # before, "all" ran jacobi, oracle, cocycle, ... and raised only when
    # assoc-dichotomy's turn came
    ran = []
    monkeypatch.setattr(suites, "verify_jacobi", lambda *a: ran.append(a))
    with pytest.raises(ValueError, match="read --alpha as one rational"):
        run_suite("all", SuiteOptions(alpha=alpha))
    assert ran == []


def test_default_valued_options_are_accepted():
    opts = SuiteOptions(window=8, max_mu=4)
    assert run_suite("weightlab-215", opts).to_json() == run_suite("weightlab-215").to_json()


def test_readme_lists_the_suite_names():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"^Suites: (.*?)\.$", readme, re.M | re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == SUITE_NAMES


@pytest.mark.parametrize("field,value", (
    ("samples", 0), ("samples", -3), ("window", -1), ("window", 0), ("max_mu", 0)))
def test_options_reject_out_of_range_numbers(field, value):
    # before, samples 0 ran 200 samples, samples -3 reported
    # "zero_residuals": -3, and max_mu 0 hung the module samplers
    with pytest.raises(ValueError, match="must be at least"):
        SuiteOptions(**{field: value})


def test_options_accept_the_least_numbers():
    opts = SuiteOptions(samples=1, window=1, max_mu=1)
    assert (opts.samples, opts.window, opts.max_mu) == (1, 1, 1)
    assert run_suite("jacobi", SuiteOptions(samples=1, max_mu=1)).passed


def test_report_json_carries_grammar_version():
    doc = run_suite("weightlab-f")
    assert doc.passed
    assert f'"grammar_version":"{GRAMMAR_VERSION}"' in doc.to_json()


def test_seeded_suites_are_deterministic():
    opts = SuiteOptions(seed=42, samples=20)
    a = run_suite("cocycle", opts).to_json()
    b = run_suite("cocycle", opts).to_json()
    assert a == b


def test_jacobi_report_records_its_lattice():
    default = run_suite("jacobi", SuiteOptions(samples=5))
    half = run_suite("jacobi", SuiteOptions(samples=5, gamma=[[Fraction(1, 2)]]))
    rank2 = run_suite("jacobi", SuiteOptions(
        samples=5, gamma=[[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(2, 5)]]))
    assert default.passed and half.passed and rank2.passed
    assert len({default.to_json(), half.to_json(), rank2.to_json()}) == 3
    assert "gamma" not in default.params
    assert half.params["gamma"] == [["1/2"]] and half.params["n"] == 1
    assert rank2.params["gamma"] == [["1/2", "1/3"], ["0", "2/5"]]
    assert rank2.params["n"] == 2


def test_assoc_dichotomy_records_witness():
    doc = run_suite("assoc-dichotomy", SuiteOptions(samples=10))
    assert doc.passed
    by_name = {c.name: c for c in doc.checks}
    w = by_name["assoc-dichotomy[B]"].details["witnesses"][0]
    assert w["residual"] == "(-15/2)*y[2]"


def test_kind_option_restricts_module_suites():
    doc = run_suite("normalize", SuiteOptions(kind="B"))
    assert doc.passed
    assert all("[B]" in c.name for c in doc.checks)


_FIELDS = {f.name for f in dataclasses.fields(SuiteOptions)}


class _RecordingOptions(SuiteOptions):
    """SuiteOptions that records which of its fields are read."""

    def __post_init__(self):
        self.read = set()
        super().__post_init__()
        self.read.clear()

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("name", SUITE_NAMES[:-1])
def test_registry_lists_the_options_each_suite_reads(name):
    # a listed field the runner does not read is a flag silently ignored; a
    # read field not listed is one check_options never lets be set. Every
    # report records the seed, so a runner that draws nothing need not read it.
    suite, reads = _SUITES[name]
    opts = _RecordingOptions(samples=2, window=2)
    suite(opts)
    assert opts.read | {"seed"} == reads | {"seed"}


def test_every_option_is_read_by_some_suite():
    # a field no suite reads is a flag every suite refuses, as --subalgebra was
    assert set().union(*(reads for _suite, reads in _SUITES.values())) | {"seed"} == _FIELDS


class _ReadArgs:
    """Parsed command-line arguments that record which of them are read."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


@pytest.mark.parametrize("argv", (["suite", "weightlab-215"], ["eval", "D"]))
def test_each_command_takes_only_the_flags_it_reads(argv, capsys):
    # a flag its command never reads would be accepted and silently ignored
    args = cli._build_parser().parse_args(argv)
    recorded = _ReadArgs(args)
    assert {"suite": cli._cmd_suite, "eval": cli._cmd_eval}[argv[0]](recorded) == 0
    capsys.readouterr()
    assert recorded.read == set(vars(args)) - {"command"}
    if argv[0] == "suite":
        assert set(vars(args)) - {"command", "name", "json_path"} == _FIELDS


def test_all_is_every_suite_under_its_name():
    opts = SuiteOptions(samples=2, window=2)
    doc = run_suite("all", opts)
    assert doc.passed
    want = []
    for name, (_suite, reads) in _SUITES.items():
        own = {f: getattr(opts, f) for f in reads & {"samples", "window"}}
        want += [{**c.to_dict(), "name": f"{name}:{c.name}"}
                 for c in run_suite(name, SuiteOptions(**own)).checks]
    assert [c.to_dict() for c in doc.checks] == want


# sha256 of run_suite(name, SuiteOptions(seed=0)).to_json(), recorded before
# the Weyl product kernel was rewritten: any change to a default report, and
# so to scripts/run_all.py --seed 0 output, shows up here.
GOLDEN_DIGESTS = {
    "jacobi": "e4565369460e7c31bfaa088b3149d98ef40a54adcaab82d5ff61344d3fec268d",
    "oracle": "a6d29a94beaa6cdf8349dcf840a7644dd0a329883f2a789a2940aabb535a1f00",
    "cocycle": "71fa139ec2286e758b693b14bc9d6f6cf5e21ecb5ae996bd2e6110e2f206d1d1",
    "onevar-identities": "7d1dbd29d5b8a285866d26432adf7c11fba7c702664f74d5e550e8aba1df4f9c",
    "lemma21": "d8eb0fb57aad052ceacd1f1b19e6d675dea1dab8d4475d3cd58c1f3f72169b18",
    "modules": "7391e2609d7bb649bba72516003a8467045c98fcff94e37eecb70797b8612ad8",
    "assoc-dichotomy": "9b1ec509bf3abfdb1e02ac693b249faf6017f7381f7e5cb71b3fd33f2be5cd7e",
    "submodules": "99b30c94b9c56ecbed77ef2a4cc691bffbc79f652cd8d851614a601776903055",
    "normalize": "b3b90b138df8853da7c033b6ad0b45719cdb79da180aada57645427f4b3ae1e3",
    "weightlab-p": "ccc4ea2c8c1533956a91221495d8efbbea54552cb1fd7bd9403fbd966f86c7a7",
    "weightlab-215": "57b0f3524609e4e417eaa62947dba7f4f874045636561bb186353b74f8f311c9",
    "weightlab-f": "75a9969d787f7c233ae123a559f317c82bf0fb0ff4938eba831b89c0f7540cfd",
    "weightlab-yk": "32de4b7741ca9a20b6186ddf9e2bad77bae8a2c34de51beb42a8f2291cf56bd2",
}


@pytest.mark.parametrize("name", SUITE_NAMES[:-1])
def test_default_report_digest(name):
    doc = run_suite(name, SuiteOptions(seed=0)).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_DIGESTS[name]


def test_failures_keep_the_index_of_each_failing_sample():
    outcomes = iter([None, "r1", None, "r3", None])
    report, failed = suites._sampled("check", 5, lambda: next(outcomes), cases=5)
    assert (report.name, report.residual, failed) == ("check", "r1", 2)
    assert report.details == {"cases": 5, "first_failing_sample": 1}
    report, failed = suites._sampled("check", 3, lambda: None, cases=3)
    assert (report.residual, report.details, failed) == (None, {"cases": 3}, 0)


def test_failing_sampled_check_records_its_first_failing_sample(monkeypatch):
    opts = SuiteOptions(samples=6)
    clean = {c.name: c for c in run_suite("jacobi", opts).checks}
    real = suites.verify_jacobi
    calls = []

    def forced(*triple):
        # draws as before; the third and fifth n = 1 samples fail
        rep = real(*triple)
        calls.append(len(calls))
        if calls[-1] in (2, 4):
            rep.residual = f"forced {calls[-1]}"
        return rep

    monkeypatch.setattr(suites, "verify_jacobi", forced)
    got = {c.name: c for c in run_suite("jacobi", opts).checks}
    assert got["jacobi[n=1]"].residual == "forced 2"
    assert got["jacobi[n=1]"].details == {"zero_residuals": 4, "samples": 6,
                                          "first_failing_sample": 2}
    # the passing check's report is unchanged
    assert got["jacobi[n=2]"].to_dict() == clean["jacobi[n=2]"].to_dict()


def test_unexpected_submodules_are_named_in_the_residual(monkeypatch):
    monkeypatch.setattr(suites, "submodule_scan", lambda m, window: [[(1,)]])
    got = {c.name: c for c in run_suite("submodules", SuiteOptions(window=2)).checks}
    assert got["submodules[A,alpha=1/2]"].residual == "found [[(1,)]], highest weight (2,)"
    assert got["submodules[A,alpha=1/2]"].details == {"proper_submodules": [1]}
    assert got["submodules[A,alpha=0]"].residual == "found [[(1,)]], highest weight (0,)"


def test_failing_assoc_witness_records_its_sample(monkeypatch):
    opts = SuiteOptions(samples=5)
    real = suites._vec_sub
    calls = []

    def forced(a, b):
        calls.append(len(calls))
        out = real(a, b)
        if calls[-1] == 3:  # the fourth case of kind A, which has no witness
            out = {(0,): Ring(("alpha",)).one}
        return out

    monkeypatch.setattr(suites, "_vec_sub", forced)
    got = {c.name: c for c in run_suite("assoc-dichotomy", opts).checks}
    assert not got["assoc-dichotomy[A]"].passed
    assert got["assoc-dichotomy[A]"].details["first_failing_sample"] == 3
    assert "first_failing_sample" not in got["assoc-dichotomy[B]"].details
