"""The benchmark's span tracer (perfbench/spans.py) wraps the package's layer
functions in the namespaces where their callers look them up; some of those
names (cli's eigen_symmetric, build_hamiltonian and ThreadPoolExecutor) are
imported only so that it can.  This guards them and checks that uninstalling
the tracer restores every attribute."""

import concurrent.futures
import types
from pathlib import Path

import pytest

from rabistark import analytic, cli, colimit, eigen, fockspace, observables, specialfn
from rabistark.fockspace import ModelParams, Variant

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (analytic, cli, colimit, eigen, fockspace, observables, specialfn,
          concurrent.futures, fockspace.HamiltonianMatrix)


@pytest.fixture(scope="module")
def spans():
    # executed from source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_span_tracer_installs_over_the_package_and_uninstalls(spans):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.eigen_symmetric is not before[OWNERS.index(cli)]["eigen_symmetric"]
        p = ModelParams(delta=1.0, g=0.2, kappa=0.1, variant=Variant.COMPLETED)
        events = observables.detect_level_crossings(p, "u", [2.08, 2.12, 2.16], 2)
        observables.mean_photon_ground(p)
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        changed = [name for name, value in saved.items() if now.get(name) is not value]
        assert changed == [], f"{owner.__name__} not restored: {changed}"

    metrics = spans.layer_metrics(tracer.table(), tracer.names)
    assert len(events) == 1
    assert 0 < metrics["observables.crossing_gap_solves"] <= 24
    assert metrics["eigen.vectors.calls"] == 1
