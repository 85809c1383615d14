"""serve-stream: a closed-loop request stream against the serving layer.

Two in-process ``ServingClient`` callers share one ``BatchingFrontDoor``
(the ``repro serve`` defaults: 10 ms window, max batch 256) over one
warm ``EnginePool`` holding every configuration of the six registered
macros.  Each caller sends its next request only when the previous
reply has arrived.

Inputs.  Every configuration gets a fixed pool of test points (its seed
test point, and for the configurations with a batched screen, the DC
ones, also the point a quarter into each parameter bound) and a fixed
pair of faults {a, b} (evenly spaced dictionary entries).  Each
(configuration, vector) key is requested ``len(PAIR) + len(SINGLES)``
times per round, each request for a fault subset:

* first by both callers in one step, one asking {a} and the other {b}:
  the callers meet at a barrier before that step, so the front door
  always coalesces the two into one batch and screens {a, b} together;
* then by single requests for the subsets of ``SINGLES``.

The seed decides which caller asks which subset, the order of the keys,
the order and pairing of the single requests and how pairs and singles
interleave (a key's single requests always come after its pair).  The
multiset of subsets per key is fixed, so every round solves the same
faults in the same batch compositions, whatever the seed.

A request whose verdicts differ bit for bit from a brand-new
executor's canonical screen of the subset it asked for is a failed
operation.  Today that happens on the keys where a fault's verdict
depends on the other faults of its batch (the batch-composition
``FOUND:`` line in ``CHANGES.md``): a request for {x} is answered with
the bits of x screened inside {a, b}.  The fixed layout makes their
count the same in every round.

Rounds.  A round replays the stream against a fresh verdict cache (the
engine pool stays warm), so every round does the same work: one batch
solve per key, hits for the rest.  The set-up step builds the pool
and screens the universe once through the pooled executors, so no round
compiles or factorizes.  That step takes ~5 s, so it runs twice
rather than ``common.SETUP_REPEATS`` times.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from checks import fresh_screens, request_failed
from common import WorkloadRun, now, timed_setup
from repro.macros.registry import available_macros, get_macro
from repro.serve import (
    BatchingFrontDoor,
    EnginePool,
    ServingClient,
    VerdictCache,
)
from repro.serve.frontdoor import DEFAULT_MAX_BATCH, DEFAULT_WINDOW

#: Normalized test points per configuration (None = the seed point).
#: Configurations without a batched screen (transient, AC), whose
#: per-fault solves cost up to ~10x a DC screen, get the seed point only.
VECTOR_POINTS = (None, 0.25)
TRANSIENT_POINTS = (None,)
#: Faults per configuration, evenly spaced over the dictionary.
FAULTS_PER_KEY = 2
#: Subsets (indices into a key's faults) of its first, coalesced step.
PAIR = ((0,), (1,))
#: Subsets of its single requests, all answered from the verdict cache.
SINGLES = ((0,), (1,), (0, 1), (0, 1), (0, 1))
#: Set-up repetitions (each ~5 s; ``setup_s`` takes their median).
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Key:
    """One (macro, configuration, vector) serving key and its faults."""

    macro: str
    configuration: str
    vector: tuple[float, ...]
    fault_ids: tuple[str, ...]


@dataclass(frozen=True)
class Request:
    """One request of the stream: a key and the fault subset asked."""

    key: Key
    fault_ids: tuple[str, ...]


def _request(key: Key, subset: tuple[int, ...]) -> Request:
    return Request(key, tuple(key.fault_ids[i] for i in subset))


@dataclass
class Served:
    """One answered request of the timed phase."""

    request: Request
    response: object
    latency_s: float
    round_index: int

    @property
    def key(self) -> Key:
        return self.request.key

    @property
    def hit(self) -> bool:
        return all(v.cached for v in self.response.verdicts)


def _test_point(configuration, point) -> tuple[float, ...]:
    if point is None:
        return tuple(float(v) for v in configuration.seed_test().values)
    bounds = configuration.parameters.bounds
    return tuple(float(v) for v in
                 bounds[:, 0] + point * (bounds[:, 1] - bounds[:, 0]))


def build_universe() -> tuple[list[Key], dict[str, object]]:
    """Every serving key, plus the macro instances by name."""
    keys: list[Key] = []
    macros = {}
    for name in available_macros():
        macro = get_macro(name)
        macros[name] = macro
        faults = tuple(macro.fault_dictionary())
        fault_ids = tuple(
            faults[i * len(faults) // FAULTS_PER_KEY].fault_id
            for i in range(FAULTS_PER_KEY))
        for configuration in macro.test_configurations("fast"):
            screenable = configuration.procedure.supports_screening
            for point in VECTOR_POINTS if screenable else TRANSIENT_POINTS:
                keys.append(Key(name, configuration.name,
                                _test_point(configuration, point),
                                fault_ids))
    return keys, macros


def build_stream(keys: list[Key], seed: int):
    """The seeded request stream: one list per caller, in steps.

    At each step both callers send one request; an entry is
    ``(request, paired)``, and the two callers meet before a paired
    step.  Pair steps and single steps interleave at random, except
    that a single step waits until the pair steps of its keys are done.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for index in rng.permutation(len(keys)):
        first = [_request(keys[index], subset) for subset in PAIR]
        pairs.append(tuple(first[i] for i in rng.permutation(len(first))))
    singles = [_request(key, subset) for key in keys for subset in SINGLES]
    singles = [singles[i] for i in rng.permutation(len(singles))]
    single_steps = list(zip(singles[0::2], singles[1::2]))

    steps, opened = [], set()
    while pairs or single_steps:
        ready = bool(single_steps) and all(
            r.key in opened for r in single_steps[0])
        if pairs and (not ready or rng.random() < len(pairs) / (
                len(pairs) + len(single_steps))):
            step, paired = pairs.pop(0), True
            opened.add(step[0].key)
        else:
            step, paired = single_steps.pop(0), False
        steps.append((step, paired))
    return [[(step[caller], paired) for step, paired in steps]
            for caller in (0, 1)]


def setup(seed: int):
    """Pool with an entry per configuration, warmed on the universe."""
    keys, macros = build_universe()
    configurations = sorted({(k.macro, k.configuration) for k in keys})
    pool = EnginePool(capacity=len(configurations))
    for macro, configuration in configurations:
        pool.entry(macro, configuration)
    for key in keys:
        entry = pool.entry(key.macro, key.configuration)
        entry.executor.screen_faults(entry.resolve_faults(key.fault_ids),
                                     list(key.vector), canonical=True)
    return keys, macros, pool, build_stream(keys, seed)


async def _round(pool: EnginePool, dealt, round_index: int,
                 served: list[Served]):
    frontdoor = BatchingFrontDoor(pool, VerdictCache(),
                                  window=DEFAULT_WINDOW,
                                  max_batch=DEFAULT_MAX_BATCH)
    client = ServingClient(frontdoor)
    meet = asyncio.Barrier(len(dealt))

    async def caller(requests):
        for request, paired in requests:
            if paired:
                await meet.wait()
            key = request.key
            started = now()
            response = await client.screen(
                key.macro, key.configuration, fault_ids=request.fault_ids,
                vector=key.vector)
            served.append(Served(request, response, now() - started,
                                 round_index))

    try:
        await asyncio.gather(*(caller(part) for part in dealt))
    finally:
        frontdoor.close()


def run(seed: int, seconds: float, tracer) -> tuple[WorkloadRun, dict]:
    """Set up, then replay whole rounds for at least *seconds*."""
    durations, (keys, macros, pool, dealt) = timed_setup(
        lambda: setup(seed), repeats=SETUP_REPEATS)
    out = WorkloadRun(setup_step_s=durations)
    served: list[Served] = []
    tracer.mark()
    started = now()
    rounds = 0
    while rounds == 0 or now() - started < seconds:
        round_started = now()
        asyncio.run(_round(pool, dealt, rounds, served))
        verdicts = sum(len(s.response.verdicts) for s in served
                       if s.round_index == rounds)
        out.round_rates.append(verdicts / (now() - round_started))
        rounds += 1
    tracer.timed_done()
    with tracer.paused():
        fresh = fresh_screens(served, macros)
    out.attempted = len(served)
    out.failed = sum(1 for s in served if request_failed(s, fresh))
    for s in served:
        if not s.hit:
            out.op_latencies.setdefault(s.key, []).append(s.latency_s)
    out.tests_applied = len(keys)
    first_round = [s for s in served if s.round_index == 0]
    detected = {(s.key, v.record.fault_id)
                for s in first_round for v in s.response.verdicts
                if v.record.detected}
    out.faults_detected = len(detected)
    return out, {"keys": keys, "macros": macros, "served": served,
                 "fresh": fresh}
