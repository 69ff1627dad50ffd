"""Golden record digests for every replication entry point.

Each case runs one entry point at a fixed seed and hashes what it
returns: the records, the progress-hook log and, where present, the
running aggregator state and shard layout.  The digests were recorded
before the replication loops were unified and must never change — a
refactor that moves one draw of one stream fails here, even when two
runs of the new code still agree with each other.

Matrix covered:

* entry points — ``AttackCampaign.run_batch``/``run_batch_table``,
  ``MeasurementPlan.execute``, ``SANSimulator.batch``;
* seeding — shared generator, spawned seed per replication, spawned
  seed per batch unit (sizes 1 and k), and ``MeasurementPlan``'s shared
  generator feeding batch units;
* sinks — collected, streamed, with and without ``on_result``/
  ``cancel``.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro import ExperimentRunner, MeasurementPlan
from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.diversity.catalog import default_catalog
from repro.doe.design import Factor
from repro.doe.factorial import full_factorial
from repro.attacks.profiles import duqu_like, stuxnet_like
from repro.results.streaming import StreamingSummary
from repro.san.simulator import SANSimulator
from repro.scada.topologies import scope_cooling_topology
from repro.scenarios.registry import get_scenario


def _campaign(name):
    scenario = get_scenario(name)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        scenario.build_campaign_config(),
    )


def _plan(threat, batch_size=None):
    design = full_factorial(
        [
            Factor("operating_system", ("win_legacy", "linux_hardened")),
            Factor("antivirus", ("av_signature", "av_behavioral")),
        ]
    )
    return MeasurementPlan(
        scope_cooling_topology,
        default_catalog(),
        threat,
        design,
        replications=5,
        campaign_config=CampaignConfig(horizon=40.0, tick_interval=0.5),
        batch_size=batch_size,
    )


def _digest(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _table_payload(table):
    payload = {
        name: [repr(v) for v in np.asarray(table.column(name)).tolist()]
        for name in table.columns
    }
    shards = getattr(table, "shards", None)
    if shards is not None:
        payload["_shards"] = [shard.n_rows for shard in table.shards]
        payload["_in_ram_rows"] = table.in_ram_rows
    return payload


def _summary_payload(summary):
    return {
        name: (
            stats.count,
            repr(summary.mean(name)),
            repr(summary.variance(name)),
        )
        for name, stats in summary.stats.items()
    }


def _outcome_payload(outcome):
    return (
        repr(outcome.response_row(outcome.horizon)),
        repr(outcome.sabotage_start),
        sorted((h, repr(t)) for h, t in outcome.compromise_times.items()),
        sorted((h, repr(t)) for h, t in outcome.root_times.items()),
        sorted(
            (stage.name, repr(t)) for stage, t in outcome.stage_times.items()
        ),
        outcome.evicted,
    )


def _run_payload(run):
    return (
        repr(run.end_time),
        repr(run.stop_time),
        [(repr(t), a, c) for t, a, c in run.completions],
        repr(run.final_marking),
    )


class _Hooks:
    """``on_result``/``cancel`` pair that records the progress log."""

    def __init__(self):
        self.log = []
        self.cancel = threading.Event()

    def on_result(self, index):
        self.log.append(index)


def _run_batch(name, seed, hooks=False, **kwargs):
    h = _Hooks() if hooks else None
    if h is not None:
        kwargs.update(on_result=h.on_result, cancel=h.cancel)
    outcomes = _campaign(name).run_batch(5, seed, **kwargs)
    return [_outcome_payload(o) for o in outcomes], h and h.log


def _run_batch_table(name, replications, seed, hooks=False, **kwargs):
    h = _Hooks() if hooks else None
    if h is not None:
        kwargs.update(on_result=h.on_result, cancel=h.cancel)
    summary = StreamingSummary()
    table = _campaign(name).run_batch_table(
        replications, seed, aggregators=(summary,), **kwargs
    )
    return _table_payload(table), _summary_payload(summary), h and h.log


def _execute(plan, seed, hooks=False, **kwargs):
    h = _Hooks() if hooks else None
    if h is not None:
        kwargs.update(on_result=h.on_result, cancel=h.cancel)
    result = plan.execute(seed, **kwargs)
    return (
        _table_payload(result.table),
        [repr(sorted(s.summary_row().items())) for s in result.run_indicators],
        result.provenance is None,
        h and h.log,
    )


def _san(replications, seed, **kwargs):
    model = get_scenario("cooling_stuxnet").build_san_model()
    runs = SANSimulator(model).batch(200.0, replications, seed, **kwargs)
    return [_run_payload(r) for r in runs]


def _gen(seed):
    return np.random.default_rng(seed)


def _serial():
    return ExperimentRunner("serial")


def _thread():
    return ExperimentRunner("thread", n_workers=2, chunk_size=1)


CASES = {
    # -- AttackCampaign.run_batch ------------------------------------
    "run_batch/shared": lambda: _run_batch("cooling_stuxnet", _gen(7)),
    "run_batch/shared/hooks": lambda: _run_batch(
        "cooling_stuxnet", _gen(7), hooks=True
    ),
    "run_batch/spawned": lambda: _run_batch("cooling_stuxnet", 2024),
    "run_batch/spawned/hooks": lambda: _run_batch(
        "cooling_stuxnet", 2024, hooks=True, runner=_serial()
    ),
    "run_batch/spawned/thread": lambda: _run_batch(
        "cooling_stuxnet", 2024, runner=_thread()
    ),
    "run_batch/spawned/generator+runner": lambda: _run_batch(
        "cooling_duqu", _gen(7), runner=_serial()
    ),
    # -- AttackCampaign.run_batch_table ------------------------------
    "table/shared/collected": lambda: _run_batch_table(
        "cooling_stuxnet", 6, _gen(7)
    ),
    "table/shared/collected/hooks": lambda: _run_batch_table(
        "cooling_stuxnet", 6, _gen(7), hooks=True
    ),
    "table/shared/streamed": lambda: _run_batch_table(
        "cooling_stuxnet", 6, _gen(7), max_records_in_ram=4
    ),
    "table/shared/streamed/hooks": lambda: _run_batch_table(
        "cooling_stuxnet", 6, _gen(7), hooks=True, max_records_in_ram=4
    ),
    "table/spawned/collected": lambda: _run_batch_table(
        "cooling_stuxnet", 6, 11
    ),
    "table/spawned/collected/hooks": lambda: _run_batch_table(
        "cooling_stuxnet", 6, 11, hooks=True, runner=_serial()
    ),
    "table/spawned/streamed": lambda: _run_batch_table(
        "cooling_stuxnet", 6, 11, max_records_in_ram=4
    ),
    "table/spawned/streamed/hooks": lambda: _run_batch_table(
        "cooling_stuxnet", 6, 11, hooks=True, max_records_in_ram=4,
        runner=_thread(),
    ),
    "table/batch1/collected": lambda: _run_batch_table(
        "cooling_duqu", 6, 11, batch_size=1
    ),
    "table/batch1/streamed/hooks": lambda: _run_batch_table(
        "cooling_duqu", 6, 11, hooks=True, batch_size=1,
        max_records_in_ram=4,
    ),
    "table/batchk/collected": lambda: _run_batch_table(
        "cooling_duqu", 10, 11, batch_size=4
    ),
    "table/batchk/collected/hooks": lambda: _run_batch_table(
        "cooling_duqu", 10, 11, hooks=True, batch_size=4
    ),
    "table/batchk/streamed": lambda: _run_batch_table(
        "cooling_duqu", 10, 11, batch_size=4, max_records_in_ram=3
    ),
    "table/batchk/streamed/hooks": lambda: _run_batch_table(
        "cooling_duqu", 10, 11, hooks=True, batch_size=4,
        max_records_in_ram=3, runner=_thread(),
    ),
    "table/batchk/generator": lambda: _run_batch_table(
        "cooling_duqu", 10, _gen(5), batch_size=4
    ),
    "table/batchk/fallback": lambda: _run_batch_table(
        "cooling_stuxnet", 5, 11, batch_size=2
    ),
    # -- MeasurementPlan.execute -------------------------------------
    "plan/shared/collected": lambda: _execute(
        _plan(stuxnet_like()), _gen(1)
    ),
    "plan/shared/streamed/hooks": lambda: _execute(
        _plan(stuxnet_like()), _gen(1), hooks=True, max_records_in_ram=7
    ),
    "plan/shared/batchk": lambda: _execute(
        _plan(duqu_like(), batch_size=2), _gen(1)
    ),
    "plan/shared/batchk/streamed/hooks": lambda: _execute(
        _plan(duqu_like(), batch_size=2), _gen(1), hooks=True,
        max_records_in_ram=7,
    ),
    "plan/spawned/collected": lambda: _execute(_plan(stuxnet_like()), 99),
    "plan/spawned/collected/hooks": lambda: _execute(
        _plan(stuxnet_like()), 99, hooks=True, runner=_serial()
    ),
    "plan/spawned/streamed/hooks": lambda: _execute(
        _plan(stuxnet_like()), 99, hooks=True, max_records_in_ram=7,
        runner=_thread(),
    ),
    "plan/spawned/generator+runner": lambda: _execute(
        _plan(stuxnet_like()), _gen(1), runner=_serial()
    ),
    "plan/spawned/batch1": lambda: _execute(
        _plan(duqu_like(), batch_size=1), 99
    ),
    "plan/spawned/batchk": lambda: _execute(
        _plan(duqu_like(), batch_size=2), 99
    ),
    # -- SANSimulator.batch ------------------------------------------
    "san/shared": lambda: _san(6, _gen(3)),
    "san/spawned": lambda: _san(6, 11),
    "san/spawned/thread": lambda: _san(6, 11, runner=_thread()),
    "san/batch1": lambda: _san(6, 11, batch_size=1),
    "san/batchk": lambda: _san(7, 11, batch_size=3),
    "san/batchk/generator": lambda: _san(7, _gen(3), batch_size=3),
}

GOLDEN = {
    "plan/shared/batchk": (
        "8521995ce89bfee82090293bb4d8faeb4e3330b7586d49672062007f2a88891b"
    ),
    "plan/shared/batchk/streamed/hooks": (
        "ecf6c0f3cd22fbe4b35f5a0ee94792ebef71a0473f53f767a52b4695ca4bcf5c"
    ),
    "plan/shared/collected": (
        "23d5499ca9c4d9d6707105784f14211abcba3588c28d768d2eab8bf06c6ed8bc"
    ),
    "plan/shared/streamed/hooks": (
        "bd4880809342d5fbd106ab1dfc687775bcd900525d66c748e0332b1a8b5259e6"
    ),
    "plan/spawned/batch1": (
        "0716d01c60b42c5dc0fc77bad048f33d5b2ec1f627c336f7619cd83ec4cec6be"
    ),
    "plan/spawned/batchk": (
        "7a1c389fb9c1915f21bc57feced4e9b6124d44793c252bca2cb1f1c81d1048c1"
    ),
    "plan/spawned/collected": (
        "30acc84a03769dbd5ad0b655bb3ecb7be0f5c36718b50e885298fb9c921ff5aa"
    ),
    "plan/spawned/collected/hooks": (
        "e47de0fb302bdb6719277d52e791c5748b074245cf1228351b57db1a3e67b00e"
    ),
    "plan/spawned/generator+runner": (
        "b91b467f771d92142fd3c31951e248bcbfcdbbbf4d0edffe292fdbb81817dba1"
    ),
    "plan/spawned/streamed/hooks": (
        "ec0b63bed7aed682f21ccf7be2ae4e44457de492f0b539ed1dd9e05a8ac68288"
    ),
    "run_batch/shared": (
        "b10590c39d6a2f1c624ab0acc7d6873405da14e5dd86d958affc16844910e0d4"
    ),
    "run_batch/shared/hooks": (
        "75dc96679fb427dfa02763c5803bd195f931ad6e2ecbed89a61bb30284851a87"
    ),
    "run_batch/spawned": (
        "e5d4c6069892f517656ca232641686371cfaeeb3c8dbd15085887fe2c90dd8ea"
    ),
    "run_batch/spawned/generator+runner": (
        "07f7501ab0750e91ee70e937cf277c6e75fa594facb4e9aeab52997dd903c93f"
    ),
    "run_batch/spawned/hooks": (
        "591fec9fe197df79ffb86985a116c3f89113bcb98d29097eb8a2b7a96fc05562"
    ),
    "run_batch/spawned/thread": (
        "e5d4c6069892f517656ca232641686371cfaeeb3c8dbd15085887fe2c90dd8ea"
    ),
    "san/batch1": (
        "fa330d2be942045ca5bbfc9dcdb8e6e690e5fdb85c2dc0d58e327c9ebd926d2d"
    ),
    "san/batchk": (
        "11d1c6484554c622aa8791e45e112e62e8db413fe0a2472f37f3cde273e51a24"
    ),
    "san/batchk/generator": (
        "f002cb5f42449f4b10f8d3c45e8ea4006e54b95ee0f550476eed727865d3c52a"
    ),
    "san/shared": (
        "e545b072ce9591be333a1b72cf1618ba1436b0c1c11313d476e339abb2c98642"
    ),
    "san/spawned": (
        "fa330d2be942045ca5bbfc9dcdb8e6e690e5fdb85c2dc0d58e327c9ebd926d2d"
    ),
    "san/spawned/thread": (
        "fa330d2be942045ca5bbfc9dcdb8e6e690e5fdb85c2dc0d58e327c9ebd926d2d"
    ),
    "table/batch1/collected": (
        "a944d28ed56981822c5258b67f21ea7be3f1743c3d39e44b11cf0ca5b8614429"
    ),
    "table/batch1/streamed/hooks": (
        "a18566eeb2ad87387990655fed89ffe1c80b09969b4c2522012889a6ce753aa3"
    ),
    "table/batchk/collected": (
        "1d74bebd310d0c10b2c3210acab11755cf6ff7bdaddbb647b063e50b66ac2bb3"
    ),
    "table/batchk/collected/hooks": (
        "785d9dddc32bb6e9447072002a0248157d49a7fa7388f3ffc4567f97c30cadc7"
    ),
    "table/batchk/fallback": (
        "fb0734d5ccab2e3e27b452bd62a7c040d2ba032b7f2b68a78f95a71b62fe8593"
    ),
    "table/batchk/generator": (
        "d57a4c89fc2fceec380f6c6a36c288b7787c172c94b2097f937b0f5d36b731b2"
    ),
    "table/batchk/streamed": (
        "7f0309df0381205fdd70e29e0676ab904024d735506c6491b83d363bca216eee"
    ),
    "table/batchk/streamed/hooks": (
        "82c21289413ab927efeed9e953583a0ad6e04c515ddc5df81eed6e4bfef6be30"
    ),
    "table/shared/collected": (
        "cbe5904e4bc54f5eedd91e6e284778f3a24ab47228444acdecc7a5714cb24837"
    ),
    "table/shared/collected/hooks": (
        "b214b23bf408de5c34bd49f2a443173423046134e73357c4011801e4c058d4a4"
    ),
    "table/shared/streamed": (
        "838f09615348ac0047b31516bfab5a749f91a60cc50377175197bcdf605e21de"
    ),
    "table/shared/streamed/hooks": (
        "6bdd7afd4b168fc2399e79ca3ed878468d0cebbba2ce8f81a0f11a16955bec47"
    ),
    "table/spawned/collected": (
        "69926f541b747d248806017b8022386bef7e3b6ecf8e8108e8e02703633d1bc4"
    ),
    "table/spawned/collected/hooks": (
        "c750b0d193299d698cba80a21e25b51082afe533e81f6e5b96b24fbc4ab7fbf9"
    ),
    "table/spawned/streamed": (
        "d73502fe80f59c8e77c15894316856e120044ac1f971a2131061912141ea4b3b"
    ),
    "table/spawned/streamed/hooks": (
        "4aa8fd5135644f48fb3f011862d1dbae8dfa8d9f36e856074d83adf64d0b28d5"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_match_golden_digest(case):
    assert _digest(CASES[case]()) == GOLDEN[case]
