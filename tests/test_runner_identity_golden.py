"""Golden identities of every ``ExperimentRunner`` call shape.

Each public ``run_*`` method turns its arguments into a version-free point
*identity* (which seeds the point and names its cache sidecar), a
version-stamped cache *key*, a cache prefix and a manifest ``method`` name.
Seeds and warm caches survive a refactor of the runner only if all four stay
byte for byte what they were, so this file pins them for every call shape,
together with the manifest ``result_digest`` (which pins the draw the seed
produced) and the grid-level tracer span.  The package version is held at a
fixed string so the pinned keys do not move with releases.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import _version
from repro.observability import read_run_log, use_tracer
from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    DynamicsSchedule,
    ExperimentRunner,
    ExponentialTilt,
    MiningPowerProfile,
    PartitionEvent,
    PartitionScenario,
    PeerGraphDelayModel,
    PeerGraphTopology,
    TimeVaryingDelayModel,
)

PINNED_VERSION = "0.0.0+identity-golden"
BASE_SEED = 2026
TRIALS, ROUNDS = 4, 240

PARAMS = parameters_from_c(c=2.0, n=400, delta=3, nu=0.25)
OTHER = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)

SCHEDULE = DynamicsSchedule([PartitionEvent(60, 40)])
PARTIAL_CUT = PartitionScenario(
    name="golden_partial_cut",
    kind="equivocation",
    partition_start=60,
    partition_duration=80,
    cut_fraction=0.5,
)
TILT = ExponentialTilt(honest_p=0.0004, adversary_p=0.0012)


def _peer_graph_model():
    return PeerGraphDelayModel(PeerGraphTopology.ring(8))


def _power():
    honest = max(int(round(PARAMS.honest_count)), 1)
    weights = [1.0 + (index % 3) for index in range(honest)]
    return MiningPowerProfile.from_weights(PARAMS, weights)


def _rare(method, tilt=None):
    return {
        "depth": 4,
        "method": method,
        "tilt": None if tilt is None else tilt.payload(),
        "pilot_trials": 64,
        "elite_fraction": 0.1,
        "max_iterations": 3,
        "smoothing": 0.7,
    }


def _rare_kwargs(method, tilt=None):
    spec = _rare(method, tilt)
    return dict(
        method=method,
        tilt=tilt,
        pilot_trials=spec["pilot_trials"],
        elite_fraction=spec["elite_fraction"],
        max_iterations=spec["max_iterations"],
        smoothing=spec["smoothing"],
    )


#: name -> (runner method, args, kwargs, cache_key kwargs or None).  The
#: ``cache_key`` kwargs describe the same point through the public key API;
#: ``None`` marks shapes it cannot express (streamed points).
SHAPES = {
    "batch": ("run_point", (PARAMS, TRIALS, ROUNDS), {}, {}),
    "scenario_private_chain": (
        "run_scenario_point",
        (PARAMS, "private_chain", TRIALS, ROUNDS),
        {},
        {"scenario": "private_chain"},
    ),
    "scenario_partial_cut": (
        "run_scenario_point",
        (PARAMS, PARTIAL_CUT, TRIALS, ROUNDS),
        {},
        {"scenario": PARTIAL_CUT},
    ),
    "topology_uniform": (
        "run_topology_point",
        (PARAMS, TRIALS, ROUNDS, "uniform"),
        {},
        {"delay_model": "uniform"},
    ),
    "topology_peer_graph_power": (
        "run_topology_point",
        (PARAMS, TRIALS, ROUNDS, _peer_graph_model()),
        {"power": _power()},
        {"delay_model": _peer_graph_model(), "power": _power()},
    ),
    "dynamics_passive": (
        "run_dynamics_point",
        (PARAMS, TRIALS, ROUNDS, SCHEDULE),
        {},
        {"delay_model": TimeVaryingDelayModel(SCHEDULE)},
    ),
    "dynamics_scenario_placement": (
        "run_dynamics_point",
        (PARAMS, TRIALS, ROUNDS, SCHEDULE),
        {
            "scenario": "private_chain",
            "placement": AdversaryPlacement("leaf"),
        },
        {
            "scenario": "private_chain",
            "delay_model": TimeVaryingDelayModel(SCHEDULE),
            "placement": AdversaryPlacement("leaf"),
        },
    ),
    "dynamics_partial_cut": (
        "run_dynamics_point",
        (PARAMS, TRIALS, ROUNDS),
        {"scenario": PARTIAL_CUT},
        {
            "scenario": PARTIAL_CUT,
            "delay_model": TimeVaryingDelayModel(
                PARTIAL_CUT.dynamics_schedule()
            ),
        },
    ),
    "rare_plain": (
        "run_rare_event_point",
        (PARAMS, 64, ROUNDS, 4),
        _rare_kwargs("plain"),
        {"rare_event": _rare("plain")},
    ),
    "rare_tilted_explicit": (
        "run_rare_event_point",
        (PARAMS, 64, ROUNDS, 4),
        _rare_kwargs("tilted", TILT),
        {"rare_event": _rare("tilted", TILT)},
    ),
    "rare_splitting": (
        "run_rare_event_point",
        (PARAMS, 64, ROUNDS, 4),
        _rare_kwargs("splitting"),
        {"rare_event": _rare("splitting")},
    ),
    "stream_batch": (
        "run_streaming_point",
        (PARAMS, 40, ROUNDS),
        {"depths": (5, 3), "chunk_cells": 2_000},
        None,
    ),
    "stream_scenario": (
        "run_streaming_point",
        (PARAMS, 40, ROUNDS),
        {"scenario": "selfish_mining"},
        None,
    ),
    "grid_batch": ("run_grid", ([PARAMS, OTHER], TRIALS, ROUNDS), {}, None),
    "grid_scenario": (
        "run_scenario_grid",
        ([PARAMS, OTHER], "private_chain", TRIALS, ROUNDS),
        {},
        None,
    ),
    "grid_topology": (
        "run_topology_grid",
        ([PARAMS, OTHER], TRIALS, ROUNDS, "uniform"),
        {},
        None,
    ),
    "grid_dynamics": (
        "run_dynamics_grid",
        ([PARAMS, OTHER], TRIALS, ROUNDS, SCHEDULE),
        {"scenario": "private_chain"},
        None,
    ),
    "grid_rare": (
        "run_rare_event_grid",
        ([PARAMS, OTHER], 64, ROUNDS, 4),
        _rare_kwargs("plain"),
        None,
    ),
    "grid_stream": (
        "run_streaming_grid",
        ([PARAMS, OTHER], 40, ROUNDS),
        {"depths": (3,)},
        None,
    ),
}


def _entropy_words(identity: str) -> list:
    return [int(identity[index : index + 8], 16) for index in range(0, 32, 8)]


def observe(name: str, cache_dir: str) -> dict:
    """Everything the golden pins for one call shape, observed end to end."""
    method, args, kwargs, _ = SHAPES[name]
    log_path = os.path.join(cache_dir, "run_log.jsonl")
    runner = ExperimentRunner(
        base_seed=BASE_SEED, cache_dir=cache_dir, run_log=log_path
    )
    with use_tracer() as tracer:
        getattr(runner, method)(*args, **kwargs)
    (root,) = tracer.roots
    identities = {}
    for entry in sorted(os.listdir(cache_dir)):
        if entry.endswith(".latest.json"):
            with open(os.path.join(cache_dir, entry), encoding="utf-8") as source:
                key = json.load(source)["key"]
            identities[key] = entry[: -len(".latest.json")].rsplit("_", 1)[1]
    points = []
    for record in read_run_log(log_path):
        identity = identities[record["cache_key"]]
        points.append(
            [
                record["method"],
                record["cache_prefix"],
                identity,
                _entropy_words(identity),
                record["cache_key"],
                record["result_digest"],
            ]
        )
    return {
        "span": root.name,
        "sharded": root.attributes.get("sharded"),
        "points": points,
    }


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setattr(_version, "__version__", PINNED_VERSION)


# Regenerate (only when an identity change is intended) by printing
# ``observe(name, tmpdir)`` for every name under the pinned version.
GOLDEN = {'batch': {'points': [['run_point',
                       'batch',
                       'd31c18df4c7070d9be3d8dd203b9e795c75553ffed7ac4ac4c1f9de275c1711e',
                       [3541833951, 1282437337, 3191705042, 62515093],
                       'a5766d919f6b0cf115a92d231c30ecc73c8a73804e064a7baa1baf00f33feed7',
                       'e35e9422db12219444a6edacc41da02f1edd90e32beb783fe9b622c4f474e939']],
           'sharded': None,
           'span': 'runner.run_point'},
 'dynamics_partial_cut': {'points': [['run_dynamics_point',
                                      'dynamics_scenario',
                                      '79e905dd34a2df3dba16358ede8304f11cc3ba10f902abd65fa39c0251299e85',
                                      [2045314525,
                                       883089213,
                                       3122017678,
                                       3733128433],
                                      '3ca97cdb8987621a7cb8cd14fa92186fdd92da75c79b9c4b59f89018161114e7',
                                      '9ca339a39c1385e110ceca51ab8b3bbcf80f041bf6194e6b5c465040503c9f81']],
                          'sharded': None,
                          'span': 'runner.run_dynamics_point'},
 'dynamics_passive': {'points': [['run_dynamics_point',
                                  'dynamics',
                                  '3389667eb027071a4b782cccf02a61fdfae2f37c6009fb95c734c4721574ddad',
                                  [864642686,
                                   2955347738,
                                   1266166988,
                                   4029309437],
                                  'f2ff811dc6c681d899678bcd6225d36b32b69ca1dd5910a64144f9eb21e51ca5',
                                  '15ae4bcd36eb920dc26ca083c91fe8ead91f8ac605f386998df33c529c586513']],
                      'sharded': None,
                      'span': 'runner.run_dynamics_point'},
 'dynamics_scenario_placement': {'points': [['run_dynamics_point',
                                             'dynamics_scenario',
                                             'aa7a3c5d83819d49dde3a444be44b7b907289071d87384754312d3aced74968f',
                                             [2860137565,
                                              2206309705,
                                              3722683460,
                                              3192174521],
                                             '173e3192d82b0722752712135a914a4b500bbf3df83becd9fa9a2c28e899f9a1',
                                             '6865c553718fa645d0fb3f259bab78ff97010986526c401aef5301220decba2e']],
                                 'sharded': None,
                                 'span': 'runner.run_dynamics_point'},
 'grid_batch': {'points': [['run_point',
                            'batch',
                            'd31c18df4c7070d9be3d8dd203b9e795c75553ffed7ac4ac4c1f9de275c1711e',
                            [3541833951, 1282437337, 3191705042, 62515093],
                            'a5766d919f6b0cf115a92d231c30ecc73c8a73804e064a7baa1baf00f33feed7',
                            'e35e9422db12219444a6edacc41da02f1edd90e32beb783fe9b622c4f474e939'],
                           ['run_point',
                            'batch',
                            '9fb689088e438abae0bd5f9aac0bd04f08d11bb023676774e801fc23e37e697a',
                            [2679539976,
                             2386791098,
                             3770507162,
                             2886455375],
                            'f5c0fd8848645174300aed6dc339dddf11d6bfe07eab76cd83f34f06c6557fd9',
                            '2677c8d8d9e5156a5283c68f5096677b22244e691ca939d923fdb45dfd2b9633']],
                'sharded': False,
                'span': 'runner.run_grid'},
 'grid_dynamics': {'points': [['run_dynamics_point',
                               'dynamics_scenario',
                               '0674a5ecbed4d4ce30c4c29987423fe94b12e6c4b01f2d5f4e7947f871272077',
                               [108307948,
                                3201619150,
                                818201241,
                                2269265897],
                               'a928358259ed195d11089f58966531908b3dd24ce4fea7a0896e1ac923239fc1',
                               '4bbe60161046408a3efbeea1d929fd12cabe4e8836d2ba55396ec88142bcdda9'],
                              ['run_dynamics_point',
                               'dynamics_scenario',
                               'ed08180d9094a3515363a1c4ad242ef825e6999fe4fefe02c09d84fd10a89eeb',
                               [3976730637,
                                2425660241,
                                1399038404,
                                2904829688],
                               'ade14c63a34f51461c780d4d7fbc65688008c479d057255579ea17a665eeef1c',
                               '07f38682c42ea9e8ef6dd7a79b0c628e089ed895bdcb4132aebad0027b06dee7']],
                   'sharded': False,
                   'span': 'runner.run_dynamics_grid'},
 'grid_rare': {'points': [['run_rare_event_point',
                           'rare',
                           'b54ed51074083e65d4bc1de7cb8fd48bb1fdcd90b3afbe77f485c7b793ae6c32',
                           [3041842448,
                            1946697317,
                            3569098215,
                            3415200907],
                           '623f0f9aca354821abdc62f60e31d50c34cd49b1324c2634bd9fe997ddb7e0fb',
                           '59bc22f2aad6b4e2cecdff4b2376274ae06a894a62eedf26ab13372271a41fd8'],
                          ['run_rare_event_point',
                           'rare',
                           'ff558e87b12a04bdec32918874104b2b01866f396df56a23556b82981f79e2ce',
                           [4283797127,
                            2972320957,
                            3962737032,
                            1947224875],
                           '730e3a81212a256b28654aa4f6c6a3f185b005b00fed323e1129406b91e588a1',
                           'e3f54f6b6329cba32837165669afacadfb3cda1208a34aa58e601f134b52cd73']],
               'sharded': False,
               'span': 'runner.run_rare_event_grid'},
 'grid_scenario': {'points': [['run_scenario_point',
                               'scenario',
                               'd0654863660230f982afb8c57e6734854df478875fd0f39fd48a4fb2e054d436',
                               [3496298595,
                                1711419641,
                                2192554181,
                                2120692869],
                               '7edc7e93e62d18f616267da5cfdf277ccb69f17ceb70b44ca83d487ad7ddf1c8',
                               'cc214080cae65827c6f4fd71ed6702496d001c96d9418aabd25ae57664cfb4ea'],
                              ['run_scenario_point',
                               'scenario',
                               '557f0ad5d253f4cedb4ac0fae10dfb21ebe863469025e154a7be6a4957c625ac',
                               [1434389205,
                                3528717518,
                                3679109370,
                                3775789857],
                               '18c1ca33cf90850063880fefd2be6ab92c8a3fd780db8c1996401af63a8964ea',
                               '65ea328db14b1de28177b26af80f493237999fe934de6b62b75acbc675b05b61']],
                   'sharded': False,
                   'span': 'runner.run_scenario_grid'},
 'grid_stream': {'points': [['run_streaming_point',
                             'stream',
                             '7c7826c3b9efbcb04177700367276956869f1294562c0a9a3866d2a905d8149d',
                             [2088249027,
                              3119496368,
                              1098346499,
                              1730636118],
                             'a75ef5b3c69dbb0665c9985496d48e9032580cbf63ba34003424493f76f81435',
                             '2fd10e6b4e0bb221b88053d09d6a0a328c243f5ce7b9a666c4ad70b05aa2ef97'],
                            ['run_streaming_point',
                             'stream',
                             '469da9dd9062d34afb55a120a45ae341d2118cb58749214ae57bb2398831e3f5',
                             [1184737757,
                              2422395722,
                              4216693024,
                              2757419841],
                             '790bfd442732cb5c4756de7ba8bdd6cd2f62fa05c5b971d79ffd2ce068d2cf75',
                             '7dc4f1282e6b485483ba135f3346ce29cc208cdc7cc3108e46ceebaac9f6a9d9']],
                 'sharded': False,
                 'span': 'runner.run_streaming_grid'},
 'grid_topology': {'points': [['run_topology_point',
                               'topology',
                               'fe2c7c49ffe839c14b801e4b68fa403b4262349f24e1f597e7bd45ee5e76e7eb',
                               [4264328265,
                                4293409217,
                                1266687563,
                                1761230907],
                               '0c175e0de55eaf5638af7439f2b2880b9186f6f5a3624bef50445178c80a8fa8',
                               '07762c7693d5665178b19aa47539399def3504f23dd44b05f8c749116bfe64c6'],
                              ['run_topology_point',
                               'topology',
                               '9dc064db852fb265b3e864c9751ac4ba63ff7d9a018c0a0d8bdd1933ed067b68',
                               [2646631643,
                                2234495589,
                                3018351817,
                                1964688570],
                               '37eba44a4b63734e44f94d35af07d56bf18e75221727038611848be1c90ea4d4',
                               '3df66dae50b4307bc193bce7eb84d28dea6c19ef92ebb78d3de56bcd521d0f2d']],
                   'sharded': False,
                   'span': 'runner.run_topology_grid'},
 'rare_plain': {'points': [['run_rare_event_point',
                            'rare',
                            'b54ed51074083e65d4bc1de7cb8fd48bb1fdcd90b3afbe77f485c7b793ae6c32',
                            [3041842448,
                             1946697317,
                             3569098215,
                             3415200907],
                            '623f0f9aca354821abdc62f60e31d50c34cd49b1324c2634bd9fe997ddb7e0fb',
                            '59bc22f2aad6b4e2cecdff4b2376274ae06a894a62eedf26ab13372271a41fd8']],
                'sharded': None,
                'span': 'runner.run_rare_event_point'},
 'rare_splitting': {'points': [['run_rare_event_point',
                                'rare',
                                '2d1cb7821543de17da8ca6ad76588f7fbacf029707caa508da7afe7dcb5e085d',
                                [756856706,
                                 356769303,
                                 3666650797,
                                 1985515391],
                                'b5ae68b165bc78e1fc505133e8994f0002bc8be62650c53a865664f7de507046',
                                '5298feabc5bbc54a8aa514218f2cfc93cda40bcf074ad5ac551d836f5fad9e63']],
                    'sharded': None,
                    'span': 'runner.run_rare_event_point'},
 'rare_tilted_explicit': {'points': [['run_rare_event_point',
                                      'rare',
                                      '7064126469e891645025fa2519d2a427cf36ed9280cf97bb669a1c8c2198b590',
                                      [1885606500,
                                       1776849252,
                                       1344666149,
                                       433234983],
                                      '19431f93cca28a795125d677af8c74949b8eca8ce515dce0464feff082e7924b',
                                      'cd3e7d37a158ab34ef4ebfff904a0bf3188e998a4bfc8788daa7cf9847d7bbe5']],
                          'sharded': None,
                          'span': 'runner.run_rare_event_point'},
 'scenario_partial_cut': {'points': [['run_scenario_point',
                                      'scenario',
                                      '6426d666a32a9bf572e19e58b124c8bf7ae2d00268355c574b4180373e302f80',
                                      [1680266854,
                                       2737478645,
                                       1927388760,
                                       2971977919],
                                      'c6278673ecc32e1cd9003fa1f47ecb7020bfabf2dabf952b32ec19a0c389f7e9',
                                      'f0699d75e17101a4f28241ee1277edb3f4c860438e796fb0b313ca0eaecc2b6f']],
                          'sharded': None,
                          'span': 'runner.run_scenario_point'},
 'scenario_private_chain': {'points': [['run_scenario_point',
                                        'scenario',
                                        'd0654863660230f982afb8c57e6734854df478875fd0f39fd48a4fb2e054d436',
                                        [3496298595,
                                         1711419641,
                                         2192554181,
                                         2120692869],
                                        '7edc7e93e62d18f616267da5cfdf277ccb69f17ceb70b44ca83d487ad7ddf1c8',
                                        'cc214080cae65827c6f4fd71ed6702496d001c96d9418aabd25ae57664cfb4ea']],
                            'sharded': None,
                            'span': 'runner.run_scenario_point'},
 'stream_batch': {'points': [['run_streaming_point',
                              'stream',
                              '1fcd4d59dd4784fb6ac800b4c73fecfedb6b9f003105785268bf88169356af03',
                              [533548377,
                               3712451835,
                               1791492276,
                               3342855422],
                              '06e8f6782912648009b01b1bbc7c5392c76764eabdfd293386455e5e901a95d2',
                              '3ba48785a64ce0021e67de8d3cce8cb8592ba0dfe2a7102a0d22591121d588ed']],
                  'sharded': None,
                  'span': 'runner.run_streaming_point'},
 'stream_scenario': {'points': [['run_streaming_point',
                                 'stream_scenario',
                                 '66f2e59f12836d05b41f99d217e293ef905cd9eda9f84ecb162a9c9b2aea2054',
                                 [1727194527,
                                  310603013,
                                  3021969874,
                                  400724975],
                                 'b5790363153d3e2ee67ae24c688cac073f1b3c9d47cf03f25e38acc8a06e74ea',
                                 '31f98a92c63b4ae676eb20c080c56a7319ee239adcc76f275c3f35afde4fc60b']],
                     'sharded': None,
                     'span': 'runner.run_streaming_point'},
 'topology_peer_graph_power': {'points': [['run_topology_point',
                                           'topology',
                                           '5f48949148d72cd55f7e88bd90f11ebc083e8eee1fb09338d7628425b4e905cc',
                                           [1598592145,
                                            1222061269,
                                            1602128061,
                                            2431721148],
                                           'abc9c3546a1868e251719b7d20167bc8658a12087b226d97fa5a7297775c88dd',
                                           '0335aa269e7b319f226986aacb8234f344b8523a04d172d93a4b843e63d2d5dc']],
                               'sharded': None,
                               'span': 'runner.run_topology_point'},
 'topology_uniform': {'points': [['run_topology_point',
                                  'topology',
                                  'fe2c7c49ffe839c14b801e4b68fa403b4262349f24e1f597e7bd45ee5e76e7eb',
                                  [4264328265,
                                   4293409217,
                                   1266687563,
                                   1761230907],
                                  '0c175e0de55eaf5638af7439f2b2880b9186f6f5a3624bef50445178c80a8fa8',
                                  '07762c7693d5665178b19aa47539399def3504f23dd44b05f8c749116bfe64c6']],
                      'sharded': None,
                      'span': 'runner.run_topology_point'}}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_call_shape_identity_is_pinned(name, tmp_path, pinned_version):
    assert observe(name, str(tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize(
    "name", sorted(name for name, shape in SHAPES.items() if shape[3] is not None)
)
def test_public_key_and_seed_match_the_run(name, pinned_version):
    """``cache_key`` / ``seed_sequence_for`` describe exactly the point run."""
    runner = ExperimentRunner(base_seed=BASE_SEED)
    _, args, _, key_kwargs = SHAPES[name]
    params, trials, rounds = (
        (args[0], args[2], args[3])
        if SHAPES[name][0] == "run_scenario_point"
        else args[:3]
    )
    (point,) = GOLDEN[name]["points"]
    _, _, identity, words, key, _ = point
    assert runner.cache_key(params, trials, rounds, **key_kwargs) == key
    seed = runner.seed_sequence_for(params, trials, rounds, **key_kwargs)
    assert list(seed.entropy) == [BASE_SEED, *words]
