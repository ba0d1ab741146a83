import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property-test modules need Hypothesis
    settings = None

if settings is not None:
    # property tests replay the same examples on every run and keep no
    # example database; the constants Hypothesis mines from the source are
    # cached in a temporary directory removed when the session ends, so no
    # .hypothesis/ appears
    settings.register_profile("germlab", derandomize=True, deadline=None, database=None)
    settings.load_profile("germlab")
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="germlab-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

CRITERIA = {
    "test_criterion_01_group_laws": (
        "C1", "exact group laws for 500 random words in six element families"),
    "test_criterion_02_derived_germs": (
        "C2", "commutators have trivial germs, generators do not"),
    "test_criterion_03_compressors": (
        "C3", "arc and cylinder compressors land inside their targets"),
    "test_criterion_04_micro_support": (
        "C4", "micro-support products satisfy all three identities"),
    "test_criterion_05_neumann": (
        "C5", "exhaustive coset-cover sweep keeps min index <= cover size"),
    "test_criterion_06_chabauty_net": (
        "C6", "conjugate net stabilizes to the derived-subgroup truncation"),
    "test_criterion_07_tree_cocycle": (
        "C7", "tree cocycle, elliptic germs and level transitivity"),
    "test_criterion_08_fullgroup_qi": (
        "C8", "orbit patches are quasi-isometric to the acting line"),
    "test_criterion_09_projective_images": (
        "C9", "projective pieces are continuous; b^n[0,1] = [0,n+1]"),
    "test_criterion_10_determinism": (
        "C10", "every suite reruns to a byte-identical report"),
}

_results = {}


def pytest_unconfigure(config):
    if settings is not None:
        _HYPOTHESIS_HOME.cleanup()


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in CRITERIA and report.when == "call":
        _results[name] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(CRITERIA):
        if name not in _results:
            continue
        tag, description = CRITERIA[name]
        verdict = "PASS" if _results[name] else "FAIL"
        terminalreporter.write_line("[%s] %s: %s" % (tag, verdict, description))
