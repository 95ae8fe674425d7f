"""The wrong verdicts a triage of the recorded corpus found, one case each.

Every case is the corpus setup — scale 0.002, an 8-node ring, a k=4 fat
tree, case 0 of its scenario at the given seed — scored by the paper's
rule under Vedrfolnir.  Each should be ``tp`` and is not yet; each is
marked with the bug it is evidence of, strictly, so the change that
fixes the bug flips its cases by name.
"""

import pytest

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.experiments.harness import run_case

#: (a) flow contention: full polling detects all five injected flows,
#: Vedrfolnir four — the step-aware trigger spends no opportunity on
#: the fifth
DETECTION_MISS = ("flow_contention: the step-aware trigger misses one "
                  "of five injected flows that full polling detects")
#: (b) PFC backpressure: every system names roots on the collective's
#: paths, never the ToR egress feeding the incast target
ROOT_NOT_REACHED = ("pfc_backpressure: no root port is the ToR egress "
                    "feeding the incast target")


@pytest.mark.parametrize("scenario, seed", [
    pytest.param("flow_contention", 1, marks=pytest.mark.xfail(
        strict=True, reason=DETECTION_MISS)),
    pytest.param("flow_contention", 42, marks=pytest.mark.xfail(
        strict=True, reason=DETECTION_MISS)),
    pytest.param("pfc_backpressure", 7, marks=pytest.mark.xfail(
        strict=True, reason=ROOT_NOT_REACHED)),
    pytest.param("pfc_backpressure", 31, marks=pytest.mark.xfail(
        strict=True, reason=ROOT_NOT_REACHED)),
    pytest.param("pfc_backpressure", 42, marks=pytest.mark.xfail(
        strict=True, reason=ROOT_NOT_REACHED)),
])
def test_corpus_case_is_diagnosed(scenario, seed):
    config = ScenarioConfig(scale=0.002, num_collective_nodes=8,
                            fat_tree_k=4, base_seed=seed)
    result = run_case(make_cases(scenario, 1, config)[0], "vedrfolnir")
    assert result.collective_completed
    assert result.outcome == "tp"
