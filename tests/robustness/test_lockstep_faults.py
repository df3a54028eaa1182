"""Device loss under lockstep tuning: void, back off, re-submit, converge.

A work unit tunes all its OCs in one ``tune_many`` call, so a device
loss voids the round's batch, which carries every in-flight OC's
points.  No OC has seen the voided round, so it is re-submitted after a
backoff; fault draws are keyed per identity and attempt, so the retry
sees fresh decisions and the campaign records exactly the fault-free
measurements.
"""

import pytest

from repro.errors import CampaignInterrupted
from repro.gpu.faults import FaultConfig
from repro.profiling import CampaignRunner, RetryPolicy
from repro.profiling.storage import campaign_to_dict

from .conftest import OCS

#: Device losses on top of the per-call fault classes.  At this loss
#: rate a merged batch of a dozen or more points is often lost.
FAULTS = FaultConfig(
    timeout_rate=0.02, transient_rate=0.02, device_lost_rate=0.005,
    corrupt_rate=0.02,
)


def _runner(population, **overrides):
    kwargs = dict(
        gpus=("V100", "P100"), ocs=OCS, n_settings=3, seed=7, faults=FAULTS,
    )
    kwargs.update(overrides)
    return CampaignRunner(population, **kwargs)


def _counters(health):
    doc = health.to_dict()
    doc.pop("units_resumed")
    doc.pop("units_completed")
    doc["backoff_s"] = pytest.approx(doc["backoff_s"])
    return doc


@pytest.fixture(scope="module")
def faulty_run(population):
    runner = _runner(population)
    return runner.run(), runner.health


def test_device_loss_campaign_equals_fault_free(faulty_run, baseline_campaign):
    campaign, health = faulty_run
    assert campaign_to_dict(campaign) == campaign_to_dict(baseline_campaign)
    assert health.device_lost > 0
    assert health.point_retries >= health.device_lost
    assert health.quarantined == []


def test_kill_resume_gives_equal_campaign_and_health(
    population, faulty_run, tmp_path
):
    campaign, health = faulty_run
    ck = tmp_path / "ck.json"
    with pytest.raises(CampaignInterrupted):
        _runner(population, checkpoint_path=ck, max_units=3).run()
    resumed = _runner(population, checkpoint_path=ck)
    assert campaign_to_dict(resumed.run(resume=True)) == campaign_to_dict(
        campaign
    )
    assert _counters(resumed.health) == _counters(health)


def test_worker_count_gives_equal_campaign_and_health(
    population, faulty_run, tmp_path
):
    campaign, health = faulty_run
    sharded = _runner(population, workers=2, mp_context="fork")
    assert campaign_to_dict(sharded.run()) == campaign_to_dict(campaign)
    assert _counters(sharded.health) == _counters(health)


def test_quarantine_is_recorded_in_oc_order(population):
    runner = _runner(
        population[:2],
        gpus=("V100",),
        faults=FaultConfig(device_lost_rate=1.0),
        policy=RetryPolicy(max_call_retries=1, max_point_retries=2),
    )
    runner.run()
    h = runner.health
    names = [oc.name for oc in OCS]
    assert [(q["stencil_id"], q["oc"]) for q in h.quarantined] == [
        (sid, name) for sid in range(2) for name in names
    ]
    # Every call loses the device: each unit's first round is retried
    # twice, then every OC in it is quarantined.
    assert h.point_retries == 2 * 2
