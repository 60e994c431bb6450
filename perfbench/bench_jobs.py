"""The benchmark's workloads, as lists of jobs built from one seed.

A job is one unit of simulated work with its own set-up: a Table 4
program on a fresh machine, one run of the Fig 9 server, or one fault
campaign.  ``setup()`` returns the state ``execute()`` consumes, so the
two can be timed apart.  ``execute()`` returns a :class:`JobOutcome`
holding the timed operations, a digest of the simulated result, and
every failed check.

Every input is generated here from the workload seed; the simulator only
ever sees the generated programs and campaign specs.
"""

import hashlib
import json
import time
from collections import deque

from repro.campaign import runner
from repro.campaign import space
from repro.campaign.models import Outcome
from repro.experiments import fig9
from repro.experiments.table4 import scaled_cache_configs
from repro.kernel.kernel import KernelConfig
from repro.program.layout import MemoryLayout
from repro.rse.check import MODULE_DDT, MODULE_ICM
from repro.rse.modules.icm import build_checker_memory, make_icm_injector
from repro.system import build_machine
from repro.workloads import kmeans, server, vpr_place, vpr_route
from repro.workloads.asmlib import build_workload_image

#: Seed whose result digests are committed in ``expected.json``.
DEFAULT_SEED = 1

MASK32 = 0xFFFFFFFF
MAX_CYCLES = 20_000_000

#: Table 4 inputs.  Each program's data (vpr-place 9.2 KB, vpr-route
#: 9.3 KB, kmeans 8.4 KB) exceeds the 8 KB dl2 of scaled_cache_configs(),
#: as the paper's inputs exceed its dl2; the compute (moves, routes,
#: clusters, iterations) is cut so one framework+ICM pass stays near 4 s.
PLACE = dict(cells=256, nets=384, moves=60, grid=32)
ROUTE = dict(width=22, height=22)
KMEANS = dict(pattern_count=700, clusters=2, iterations=1)

#: vpr-route's cost depends on the maze: at a fixed route count the
#: simulated cycles of one seed differ from the next by up to 2x.  Each
#: routed job is therefore sized in BFS cell visits, ~65 cycles each:
#: of ROUTE_MAZES mazes derived from the seed, the job routes the maze
#: and route count whose visits come closest to ROUTE_VISITS.
ROUTE_VISITS = 700
ROUTE_MAZES = 8
ROUTE_MAX = 32

#: Fig 9 server runs per pass, each with its own kernel jitter seed.
#: The paper's kernel settings (fig9) with work_iters cut from 4000 to
#: 100 and 16 requests: ~0.5 s per run, still saving pages and logging
#: dependencies across six threads.
SERVER_RUNS = 4
SERVER = dict(threads=6, requests=16, work_iters=100)

#: Protected campaigns per pass on DEMO_WORKLOAD: (model, injections,
#: fork).  instr-flip takes the cold path (the ICM stops the run at the
#: first CHECK); mem-flip restores a forked prefix and runs to the end.
CAMPAIGNS = (("instr-flip", 40, False), ("instr-flip", 40, False),
             ("mem-flip", 15, True), ("mem-flip", 15, True))

#: A forked mem-flip strike simulates from its trigger cycle to the end
#: of the run, so a campaign's host time follows its triggers.  They are
#: uniform over the run: the tails of 15 of them sum to 0.6-1.2x their
#: mean from one seed to the next.  Each mem-flip campaign therefore
#: takes, of CAMPAIGN_SEEDS seeds derived from the workload seed, the
#: one whose mean trigger lies nearest the middle of the window.
CAMPAIGN_SEEDS = 16

SNAPSHOT_SECTIONS = ("pipeline", "memory", "rse", "kernel")


def derive_seed(seed, label):
    """A per-input seed: a pure function of the workload seed and label."""
    digest = hashlib.sha256(("%d:%s" % (seed, label)).encode()).digest()
    return int.from_bytes(digest[:4], "little") % 0x7FFFFFFE + 1


def digest_of(document):
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class JobOutcome:
    """What one execution of a job produced.

    ``ops`` are ``(key, seconds, sim_cycles)`` per timed operation: one
    per machine job, one per injection for a campaign.  ``failed`` is
    how many of them failed a check; ``problems`` says why.
    """

    def __init__(self, ops, digest, problems, failed, snapshots=()):
        self.ops = ops
        self.digest = digest
        self.problems = problems
        self.failed = failed
        self.snapshots = list(snapshots)


def _words(memory, addr, count):
    return [memory.load_word(addr + 4 * index) for index in range(count)]


# --------------------------------------------------------------- machine jobs

class MachineJob:
    """One program run to ``halt`` on a freshly built machine."""

    op_count = 1

    def __init__(self, name, source, oracle, icm=False, kernel_config=None,
                 ddt=False, requests=None):
        self.name = name
        self.source = source
        self.oracle = oracle
        self.icm = icm
        self.ddt = ddt
        self.kernel_config = kernel_config
        self.requests = requests

    def setup(self):
        modules = ("icm",) if self.icm else ("ddt",) if self.ddt else ()
        machine = build_machine(
            with_rse=bool(modules), modules=modules,
            kernel_config=self.kernel_config,
            cache_configs=None if self.ddt else scaled_cache_configs())
        image, asm = build_workload_image(self.source, MemoryLayout())
        if self.ddt:
            machine.rse.enable_module(MODULE_DDT)
            machine.kernel.set_request_source(self.requests)
        machine.kernel.load_process(image)
        if self.icm:
            # Table 4's framework+ICM: every control-flow instruction
            # gets a runtime-inserted CHECK.
            text = image.segment(".text")
            checker_map = build_checker_memory(machine.memory, text.base,
                                               len(text.data))
            machine.module(MODULE_ICM).configure(checker_map)
            machine.rse.enable_module(MODULE_ICM)
            machine.pipeline.check_injector = make_icm_injector(checker_map)
        return machine, asm

    def execute(self, state):
        machine, asm = state
        start = time.perf_counter()
        result = machine.kernel.run(max_cycles=MAX_CYCLES)
        seconds = time.perf_counter() - start
        problems = []
        if result.reason != "halt":
            problems.append("%s ended with %r" % (self.name, result.reason))
        else:
            problems.extend(self.oracle(machine, asm))
        snapshot = machine.snapshot()
        document = {key: snapshot[key] for key in SNAPSHOT_SECTIONS}
        if self.ddt:
            document["responses"] = sorted(machine.kernel.responses.items())
        return JobOutcome([(self.name, seconds, result.cycles)],
                          digest_of(document), problems,
                          failed=1 if problems else 0, snapshots=[snapshot])


def _place_oracle(spec, seed):
    """final_cost must equal the wirelength of the final placement."""
    __, __, nets = vpr_place.make_netlist(spec["cells"], spec["nets"],
                                          spec["grid"], seed)

    def check(machine, asm):
        memory, symbols = machine.memory, asm.symbols
        posx = _words(memory, symbols["posx"], spec["cells"])
        posy = _words(memory, symbols["posy"], spec["cells"])
        final_cost = memory.load_word(symbols["final_cost"])
        expected = vpr_place.wirelength(posx, posy, nets)
        if final_cost != expected:
            return ["vpr-place final_cost %d != wirelength %d"
                    % (final_cost, expected)]
        return []
    return check


def route_visits(occ, srcs, sinks, stride):
    """Cells each route's BFS dequeues or marks, route by route.

    Mirrors :func:`repro.workloads.vpr_route.reference_route`, which
    returns only totals, to count the work each route does.
    """
    occ = list(occ)
    visits = []
    for src, sink in zip(srcs, sinks):
        count = 0
        parent = {src: src}
        queue = deque([src] if not (occ[src] or occ[sink]) else [])
        while queue:
            cell = queue.popleft()
            count += 1
            if cell == sink:
                while True:
                    occ[cell] = 1
                    count += 1
                    if parent[cell] == cell:
                        break
                    cell = parent[cell]
                break
            for offset in (1, -1, stride, -stride):
                neighbor = cell + offset
                if neighbor not in parent and not occ[neighbor]:
                    parent[neighbor] = cell
                    queue.append(neighbor)
        visits.append(count)
    return visits


def pick_route(seed):
    """``(maze_seed, routes)`` whose routing work is nearest ROUTE_VISITS."""
    best = None
    for index in range(ROUTE_MAZES):
        maze_seed = derive_seed(seed, "vpr-route%d" % index)
        maze = vpr_route.make_maze(ROUTE["width"], ROUTE["height"],
                                   ROUTE_MAX, seed=maze_seed)
        total = 0
        for routes, visits in enumerate(route_visits(*maze), 1):
            total += visits
            distance = abs(total - ROUTE_VISITS)
            if best is None or distance < best[0]:
                best = (distance, maze_seed, routes)
            if total > ROUTE_VISITS:
                break
    return best[1], best[2]


def _route_oracle(spec, seed):
    """routed / total_len must match the Python BFS router."""
    occ, srcs, sinks, stride = vpr_route.make_maze(
        spec["width"], spec["height"], spec["routes"], seed=seed)
    expected = vpr_route.reference_route(occ, srcs, sinks, stride)

    def check(machine, asm):
        got = (machine.memory.load_word(asm.symbols["routed"]),
               machine.memory.load_word(asm.symbols["total_len"]))
        if got != expected:
            return ["vpr-route (routed, total_len) %r != %r"
                    % (got, expected)]
        return []
    return check


def _kmeans_oracle(spec, seed):
    """assign / centroids must match the bit-exact Python k-means."""
    patterns = kmeans.generate_patterns(spec["pattern_count"],
                                        spec["clusters"], seed)
    assign, centroids = kmeans.reference_kmeans(
        patterns, spec["clusters"], spec["iterations"])
    flat = [value & MASK32 for centroid in centroids for value in centroid]

    def check(machine, asm):
        memory, symbols = machine.memory, asm.symbols
        problems = []
        if _words(memory, symbols["assign"], len(patterns)) != assign:
            problems.append("kmeans assignments differ from reference")
        if _words(memory, symbols["centroids"], len(flat)) != flat:
            problems.append("kmeans centroids differ from reference")
        return problems
    return check


def server_response(request_id, work_iters):
    """The server's per-request LCG hash, computed in Python."""
    value = request_id
    for __ in range(work_iters):
        value = ((value * 1664525 + 1013904223) & MASK32) ^ request_id
    return value


def _server_oracle(spec):
    """Every request answered with its LCG hash; pages saved, deps logged.

    The statistics and class pages are not compared: workers update them
    with unlocked read-modify-writes, so a preemption between the load
    and the store loses an update, as the program intends (the races
    are what DDT tracks).
    """
    responses = {rid: server_response(rid, spec["work_iters"])
                 for rid in range(spec["requests"])}

    def check(machine, asm):
        problems = []
        got = {rid: value & MASK32
               for rid, value in machine.kernel.responses.items()}
        if got != responses:
            problems.append("server responses differ from the LCG oracle")
        if not machine.kernel.checkpoints.saves_total:
            problems.append("server run saved no pages")
        if not machine.module(MODULE_DDT).dependencies_logged:
            problems.append("server run logged no dependencies")
        return problems
    return check


def table4_jobs(seed, icm):
    """vpr-place, vpr-route and kmeans on the baseline or ICM machine."""
    place_seed = derive_seed(seed, "vpr-place")
    route_seed, routes = pick_route(seed)
    route = dict(ROUTE, routes=routes)
    kmeans_seed = derive_seed(seed, "kmeans")
    return [
        MachineJob("vpr-place",
                   vpr_place.source(seed=place_seed, **PLACE),
                   _place_oracle(PLACE, place_seed), icm=icm),
        MachineJob("vpr-route",
                   vpr_route.source(seed=route_seed, **route),
                   _route_oracle(route, route_seed), icm=icm),
        MachineJob("kmeans",
                   kmeans.source(seed=kmeans_seed, **KMEANS),
                   _kmeans_oracle(KMEANS, kmeans_seed), icm=icm),
    ]


def server_jobs(seed):
    """The Fig 9 server with DDT, once per derived kernel jitter seed."""
    source = server.source(SERVER["threads"],
                           work_iters=SERVER["work_iters"])
    oracle = _server_oracle(SERVER)
    jobs = []
    for index in range(SERVER_RUNS):
        config = KernelConfig(quantum_cycles=4000, io_recv_latency=3000,
                              io_recv_jitter=30000, io_send_cost=100,
                              savepage_cost=fig9.SAVEPAGE_COST,
                              rng_seed=derive_seed(seed, "server%d" % index))
        jobs.append(MachineJob("server%d" % index, source, oracle,
                               kernel_config=config, ddt=True,
                               requests=SERVER["requests"]))
    return jobs


# ---------------------------------------------------------------- campaigns

class CampaignJob:
    """One serial protected campaign, timed injection by injection.

    Set-up is the campaign context (assembly, golden run, checker map),
    injection sampling and, with fork, the trunk machine.  The injection
    loop is ``run_campaign``'s serial loop, so records are the ones
    ``run_campaign(spec, ExecutionOptions(workers=1, fork=...))`` gives.
    """

    def __init__(self, name, model, injections, seed, fork):
        self.name = name
        self.fork = fork
        self.op_count = injections
        self.spec = runner.CampaignSpec(
            source=runner.DEMO_WORKLOAD, model=model, protected=True,
            injections=injections, seed=seed)

    def setup(self):
        ctx = runner.CampaignContext(self.spec)
        injections = space.sample_injections(ctx.model, ctx,
                                             self.spec.injections,
                                             self.spec.seed)
        if not self.fork:
            return ctx, None, injections
        engine = runner.ForkEngine(ctx)
        return ctx, engine, runner._fork_order(ctx, injections)

    def execute(self, state):
        ctx, engine, injections = state
        clock = time.perf_counter
        ops, records = [], []
        for injection in injections:
            start = clock()
            if engine is None:
                record = runner.execute_injection(ctx, injection)
            else:
                record = runner.forked_injection(ctx, engine, injection)
            ops.append(((self.name, injection.id), clock() - start,
                        record["cycles"]))
            records.append(record)
        records.sort(key=lambda record: record["id"])
        crashed = [record["id"] for record in records
                   if record["outcome"] == Outcome.CRASHED.value]
        problems = ["%s injection %d crashed" % (self.name, rid)
                    for rid in crashed]
        return JobOutcome(ops, records_digest(records), problems,
                          failed=len(crashed))


def records_digest(records):
    return digest_of(sorted(records, key=lambda record: record["id"]))


def pick_mem_flip_seed(seed, name, injections):
    """The campaign seed whose mean trigger is nearest mid-window."""
    spec = runner.CampaignSpec(source=runner.DEMO_WORKLOAD, model="mem-flip",
                               protected=True, injections=injections)
    ctx = runner.CampaignContext(spec)
    middle = ctx.model.build_space(ctx)["max_cycle"] / 2.0
    best = None
    for index in range(CAMPAIGN_SEEDS):
        candidate = derive_seed(seed, "%s-%d" % (name, index))
        triggers = [injection.params["cycle"] for injection in
                    space.sample_injections(ctx.model, ctx, injections,
                                            candidate)]
        distance = abs(sum(triggers) / len(triggers) - middle)
        if best is None or distance < best[0]:
            best = (distance, candidate)
    return best[1]


def campaign_jobs(seed):
    jobs = []
    for index, (model, injections, fork) in enumerate(CAMPAIGNS):
        name = "%s%d" % (model, index)
        if model == "mem-flip":
            campaign_seed = pick_mem_flip_seed(seed, name, injections)
        else:
            campaign_seed = derive_seed(seed, name)
        jobs.append(CampaignJob(name, model, injections, campaign_seed,
                                fork))
    return jobs


#: BENCHMARK.json gates all but table4-bare: four workloads left too
#: little time per run for runs steady on a shared host.  table4-bare
#: stays here as the RSE-free baseline to run by hand.
WORKLOADS = {
    "table4-bare": lambda seed: table4_jobs(seed, icm=False),
    "table4-icm": lambda seed: table4_jobs(seed, icm=True),
    "ddt-server": server_jobs,
    "protected-campaign": campaign_jobs,
}
