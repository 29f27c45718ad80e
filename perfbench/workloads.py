"""The benchmark's four workloads, built from a seed.

Two are *sequential*: one host thread issues one operation after another
(``soc_plan``, ``riscv_offload``).  Two are *serving* workloads: 64
closed-loop clients on one asyncio loop (``serve_inproc``, ``serve_fabric``).
Every input, weight and graph is drawn from the workload seed; the program
only ever receives the generated inputs.  Reference outputs are computed
during set-up, outside every timed window.

Each workload also knows which public functions to wrap for a traced run
(``trace_hooks``) and which counters it keeps (``counters``,
``pipe_counters``); ``layers.py`` turns them into per-layer metrics.  The
program itself is never edited.
"""

import asyncio
import os
import time
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace

import numpy as np

import repro.serving.server as server_module
import repro.system.soc as soc_module
from repro.compiler import ModelGraph, SoCCostModel, compile_for_soc
from repro.compiler.ops import AddOp, ConcatOp, DenseOp, SplitOp
from repro.core.backends import AnalogPhotonicBackend, IdealDigitalBackend
from repro.core.energy import PhotonicCoreEnergyModel
from repro.core.mvm import PhotonicMVM
from repro.materials.pcm import PCMMaterial
from repro.serving import (
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    ServingTelemetry,
    WorkerSpec,
)
from repro.system import PhotonicSoC

#: watchdog for the reused RISC-V SoC.  ``run_program`` compares the
#: lifetime-absolute scheduler clock against ``max_cycles``; with the default
#: (50M) a reused SoC silently stops executing programs after ~3,500 ops.
RISCV_MAX_CYCLES = 1 << 62


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _columns(args, result):
    """Span work of a ``(self_or_weights, inputs, ...)`` call: input columns."""
    return float(np.shape(args[1])[1])


# ---------------------------------------------------------------------- #
# sequential workloads
# ---------------------------------------------------------------------- #
class SequentialWorkload:
    """One operation at a time on the host thread.

    ``op(i)`` is the timed call; ``finish(i, output)`` runs after the timer
    stops, checks the output and accumulates per-op counters.  Simulated
    figures come from one whole warm-up round over the input pool, so they
    repeat exactly for a given seed.
    """

    kind = "sequential"
    pool = 8
    #: time the reference on the current CPU only (one busy process)
    all_cpus = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.stats = {}
        self.sim_cycles_per_op = 0.0
        self.sim_energy_nj_per_op = 0.0

    def _add(self, **values) -> None:
        for key, value in values.items():
            self.stats[key] = self.stats.get(key, 0) + value

    def counters(self) -> dict:
        """Cumulative counters; per-layer counts are their traced deltas."""
        counters = dict(self.stats)
        counters["events"] = self.soc.scheduler.events_processed
        return counters

    def trace_hooks(self, tracer) -> None:
        """Spans around the system, core and materials layers of the SoC."""
        tracer.span(self.soc, "run_tiled_gemm", "system.tiled_gemm")
        tracer.span(self.soc.scheduler, "run", "system.event")
        tracer.span(self.soc.main_memory, "dump_words", "system.memory.dump")
        tracer.span(PhotonicCoreEnergyModel, "__init__", "core.energy_model")
        tracer.count(PCMMaterial, "effective_index", "materials.pcm.effective_index")

    def teardown(self) -> None:
        """Nothing to release: the SoC is plain Python state."""


class SoCPlanWorkload(SequentialWorkload):
    """A compiled DAG plan on a 4-PE photonic SoC at batch width 8.

    The graph is a residual MLP stem (two skip blocks) feeding a four-head
    readout and a wide output layer.  Compiled against a calibrated cost
    model it lowers to row-sharded offloads, one branch-fused offload (the
    heads), one K-sharded offload (the output layer) and host glue (adds,
    concat).  One op is one ``SoCPlan.run``.
    """

    name = "soc_plan"
    n_pes = 4
    batch = 8
    features = 16
    heads = 4

    def _graph(self) -> ModelGraph:
        rng = _rng(self.seed, 1)
        f, heads = self.features, self.heads

        def matrix(n_out, n_in):
            return rng.integers(-3, 4, size=(n_out, n_in))

        graph = ModelGraph(name="residual-multihead")
        graph.add_op(DenseOp("stem", matrix(f, f)))
        previous = "stem"
        for index in range(2):
            dense, add = f"block{index}_dense", f"block{index}_add"
            graph.add_op(DenseOp(dense, matrix(f, f), activation="relu"), inputs=[previous])
            graph.add_op(AddOp(add, f), inputs=[previous, dense])
            previous = add
        graph.add_op(DenseOp("trunk", matrix(f, f), activation="relu"), inputs=[previous])
        width = f // heads
        head_names = []
        for index in range(heads):
            graph.add_op(
                SplitOp(f"slice{index}", f, index * width, (index + 1) * width),
                inputs=["trunk"],
            )
            graph.add_op(DenseOp(f"head{index}", matrix(4, width)), inputs=[f"slice{index}"])
            head_names.append(f"head{index}")
        graph.add_op(ConcatOp("readout", (4,) * heads), inputs=head_names)
        graph.add_op(DenseOp("out", matrix(4, 4 * heads)), inputs=["readout"])
        return graph

    def setup(self) -> None:
        """Build and calibrate the SoC, compile the plan, warm up one round."""
        self.graph = self._graph()
        self.soc = PhotonicSoC()
        for _ in range(self.n_pes):
            self.soc.add_photonic_accelerator()
        model = SoCCostModel.calibrate(self.soc)
        self.plan = compile_for_soc(
            self.graph, self.soc, cost_model=model, n_columns=self.batch, cache=None
        )
        kinds = [(step.kind, step.sharding) for step in self.plan.steps]
        self.steps = {
            "rows": sum(1 for kind, sharding in kinds if kind == "dense" and sharding == "rows"),
            "k": sum(1 for kind, sharding in kinds if "dense" in kind and sharding == "k"),
            "fused": sum(1 for kind, _ in kinds if kind == "fused-dense"),
        }
        if min(self.steps.values()) < 1:
            raise RuntimeError(f"plan lacks a row, K or fused offload: {kinds}")
        rng = _rng(self.seed, 2)
        self.inputs = [
            rng.integers(-3, 4, size=(self.features, self.batch)) for _ in range(self.pool)
        ]
        self.references = [self.graph.reference_forward(x) for x in self.inputs]
        # warm-up: one priming op (first offloads pay mesh programming), then
        # one whole round whose simulated figures define the per-op values
        self.plan.run(self.inputs[0])
        cycles = energy = 0.0
        for index in range(self.pool):
            if not self.finish(index, self.op(index)):
                raise RuntimeError("soc_plan output mismatch during warm-up")
            cycles += self.plan.total_cycles
            energy += sum(report.energy_j for report in self.plan.reports)
        self.sim_cycles_per_op = cycles / self.pool
        self.sim_energy_nj_per_op = energy / self.pool * 1e9
        self.stats = {}

    def op(self, index: int):
        """The timed call: one ``SoCPlan.run``."""
        return self.plan.run(self.inputs[index % self.pool])

    def finish(self, index: int, output) -> bool:
        """Check the output and simulated cycles; accumulate per-op counters."""
        reports = self.plan.reports
        self._add(
            offloads=len(reports),
            dma_words=sum(
                channel["words_moved"] for report in reports for channel in report.dma.values()
            ),
            overlap_cycles=sum(report.pipeline.get("overlap_cycles", 0) for report in reports),
            staging_words=sum(report.pipeline.get("staging_words", 0) for report in reports),
            sim_cycles=self.plan.total_cycles,
        )
        ok = np.array_equal(output, self.references[index % self.pool])
        return bool(ok) and (
            self.sim_cycles_per_op == 0 or self.plan.total_cycles == self.sim_cycles_per_op
        )



class RiscvOffloadWorkload(SequentialWorkload):
    """Software GeMM on the RISC-V interpreter plus an MMR/IRQ offload.

    One reused 1-PE SoC.  One op is ``run_cpu_gemm`` followed by
    ``run_offloaded_gemm(use_interrupt=True)`` on a 6x6x4 integer GeMM.
    Both calls report lifetime-cumulative scheduler cycles and cumulative
    memory/bus/accelerator energy on a reused SoC (the CPU's own counters
    reset per program), so the workload derives per-op deltas itself.
    """

    name = "riscv_offload"
    shape = (6, 6, 4)

    def setup(self) -> None:
        """Build the reused SoC, check the delta method, warm up one round."""
        rows, inner, cols = self.shape
        rng = _rng(self.seed, 3)
        self.operands = [
            (rng.integers(-8, 9, size=(rows, inner)), rng.integers(-8, 9, size=(inner, cols)))
            for _ in range(self.pool)
        ]
        self.references = [w @ x for w, x in self.operands]
        self.soc = PhotonicSoC(max_cycles=RISCV_MAX_CYCLES)
        self.soc.add_photonic_accelerator()
        # the per-op delta method must agree with a fresh SoC's report
        fresh = PhotonicSoC()
        fresh.add_photonic_accelerator()
        w, x = self.operands[0]
        cpu = fresh.run_cpu_gemm(w, x)
        offload = fresh.run_offloaded_gemm(w, x, use_interrupt=True)
        expected_cycles = offload.cycles
        expected_energy = offload.energy_j + cpu.energy_breakdown["cpu"]
        # warm-up: a priming op sets the delta baseline, then one whole round
        self._previous = self.op(0)[1]
        self.stats = {}
        for index in range(self.pool):
            if not self.finish(index, self.op(index)):
                raise RuntimeError("riscv_offload output mismatch during warm-up")
        self.sim_cycles_per_op = self.stats["sim_cycles"] / self.pool
        energy_j = self.stats["sim_energy_j"] / self.pool
        self.sim_energy_nj_per_op = energy_j * 1e9
        if self.sim_cycles_per_op != expected_cycles or not np.isclose(
            energy_j, expected_energy, rtol=1e-9
        ):
            raise RuntimeError(
                f"per-op deltas ({self.sim_cycles_per_op} cycles, {energy_j} J) disagree "
                f"with a fresh SoC ({expected_cycles} cycles, {expected_energy} J)"
            )
        self.stats = {}

    def op(self, index: int):
        """The timed call: software GeMM, then the interrupt-driven offload."""
        weights, inputs = self.operands[index % self.pool]
        cpu = self.soc.run_cpu_gemm(weights, inputs)
        cpu_cycles = self.soc.cpu.stats.cycles
        offload = self.soc.run_offloaded_gemm(weights, inputs, use_interrupt=True)
        return cpu, offload, cpu_cycles + self.soc.cpu.stats.cycles

    def finish(self, index: int, output) -> bool:
        """Check both results and the per-op cycle delta; accumulate counters."""
        cpu, offload, cpu_cycles = output
        previous, self._previous = self._previous, offload
        cycles = offload.cycles - previous.cycles
        energy = cpu.energy_breakdown["cpu"] + offload.energy_breakdown["cpu"] + sum(
            value - previous.energy_breakdown[name]
            for name, value in offload.energy_breakdown.items()
            if name != "cpu"
        )
        self._add(
            sim_cycles=cycles,
            sim_energy_j=energy,
            instructions=cpu.instructions + offload.instructions,
            cpu_cycles=cpu_cycles,
        )
        reference = self.references[index % self.pool]
        return (
            np.array_equal(cpu.result, reference)
            and np.array_equal(offload.result, reference)
            and (self.sim_cycles_per_op == 0 or cycles == self.sim_cycles_per_op)
        )

    def trace_hooks(self, tracer) -> None:
        """The SoC spans plus ``assemble``, which runs on every program."""
        super().trace_hooks(tracer)
        tracer.span(soc_module, "assemble", "system.assembler")


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #
class Segment:
    """Outcome of one closed-loop segment (all clients stopped at its end)."""

    def __init__(self):
        self.latencies = []
        self.outputs = []
        self.keys = []
        self.failed = 0
        self.errors = {}
        self.wall_s = 0.0


async def closed_loop(submit, pick, n_clients: int, stop_at: float) -> Segment:
    """Run ``n_clients`` closed-loop clients until ``stop_at``, then drain.

    Each client sends its next request only after the previous one
    resolved.  A request that raises (rejected, expired, failed) is counted
    as failed; the client moves on to its next request.
    """
    segment = Segment()
    clock = time.perf_counter

    async def client(index: int) -> None:
        sequence = 0
        while clock() < stop_at:
            key = pick(index, sequence)
            sequence += 1
            started = clock()
            try:
                output = await submit(key)
            except Exception as exc:  # noqa: BLE001 - counted, never dropped
                segment.failed += 1
                kind = type(exc).__name__
                segment.errors[kind] = segment.errors.get(kind, 0) + 1
                continue
            segment.latencies.append(clock() - started)
            segment.outputs.append(output)
            segment.keys.append(key)

    started = clock()
    await asyncio.gather(*(client(index) for index in range(n_clients)))
    segment.wall_s = clock() - started
    return segment


class ServingWorkload:
    """Closed-loop serving: 64 clients, outputs checked after each segment."""

    kind = "serving"
    all_cpus = False
    clients = 64
    n_inputs = 256
    features = 16
    max_batch = 32
    rtol = 1e-9

    def __init__(self, seed: int, trace_dir=None):
        self.seed = int(seed)
        self.trace_dir = trace_dir
        self.sim_cycles_per_op = 0.0
        self.sim_energy_nj_per_op = 0.0

    def _inputs(self) -> np.ndarray:
        return _rng(self.seed, 4).normal(size=(self.n_inputs, self.features))

    def check(self, segment: Segment) -> int:
        """Number of outputs outside the tolerance of their reference."""
        if not segment.outputs:
            return 0
        keys = np.asarray(segment.keys)
        outputs = np.stack([np.asarray(output, dtype=float) for output in segment.outputs])
        expected = self.references[keys[:, 0], keys[:, 1]]
        scale = np.abs(self.references).max()
        close = np.abs(outputs - expected) <= self.rtol * (np.abs(expected) + scale)
        return int(np.count_nonzero(~close.all(axis=1)))

    async def segment(self, stop_at: float) -> Segment:
        """One closed-loop segment of every client, ending at ``stop_at``."""
        return await closed_loop(self.submit, self.pick, self.clients, stop_at)

    def _telemetry_hooks(self, tracer, telemetry) -> None:
        tracer.span(telemetry, "on_admit", "serving.telemetry.on_admit",
                    work=lambda args, result: float(args[1]))
        tracer.span(telemetry, "on_result", "serving.telemetry.on_result")


class ServeInprocWorkload(ServingWorkload):
    """In-process ``InferenceServer``, one ``analog-photonic`` replica, 4 models.

    Requests carry explicit weights, so every admission hashes its weight
    matrix.  The analog backend runs noise-free, which makes the outputs a
    deterministic function of the programmed mesh and checkable.
    """

    name = "serve_inproc"
    models = 4

    async def setup(self, tracer=None) -> None:
        """Program the 4 models, compute references, start the server."""
        rng = _rng(self.seed, 5)
        self.weights = [rng.normal(size=(self.features, self.features)) for _ in range(self.models)]
        self.inputs = self._inputs()
        oracle = AnalogPhotonicBackend(add_noise=False, rng=self.seed)
        # references[model, input] -> output row, computed outside every window
        self.references = np.stack([oracle.matmul(w, self.inputs.T).T for w in self.weights])
        self.engine = GemmEngine(
            backend="analog-photonic", add_noise=False, rng=self.seed, max_models=self.models
        )
        for weights in self.weights:
            self.engine.compile(weights)
        self.replica = Replica(
            "r0", self.engine, max_batch=self.max_batch, max_wait_s=0.0,
            max_queue_depth=2 * self.clients,
        )
        self.telemetry = ServingTelemetry()
        if tracer is not None:
            # the server subscribes telemetry.on_batch as a bound method at
            # construction; route it through a switchable slot so traced
            # segments can wrap it
            self.on_batch_slot = SimpleNamespace(call=self.telemetry.on_batch)
            slot = self.on_batch_slot
            self.telemetry.on_batch = lambda name, size: slot.call(name, size)
        self.server = InferenceServer([self.replica], telemetry=self.telemetry)
        await self.server.start()

    def pick(self, client: int, sequence: int):
        """A client's ``sequence``-th request as ``(model, input index)``."""
        return ((client + sequence) % self.models, (client * 37 + sequence * 13) % self.n_inputs)

    def submit(self, key):
        """Submit one request with explicit weights; returns its awaitable."""
        model, index = key
        return self.server.submit(self.inputs[index], weights=self.weights[model])

    async def teardown(self) -> None:
        """Drain and stop the server."""
        await self.server.shutdown(drain=True)

    def trace_hooks(self, tracer) -> None:
        """Spans around hashing, engine, MVM and telemetry calls."""
        tracer.span(server_module, "weight_hash", "serving.weight_hash")
        tracer.span(self.engine, "run_batch", "serving.engine", work=_columns)
        tracer.span(PhotonicMVM, "matmul", "core.mvm", work=_columns)
        self._telemetry_hooks(tracer, self.telemetry)
        tracer.span(self.on_batch_slot, "call", "serving.telemetry.on_batch")

    def pipe_counters(self) -> dict:
        """No pipes in process."""
        return {}


class CountingConnection:
    """Pipe end that counts messages and bytes in both directions.

    Sends exactly the bytes ``Connection.send`` would (one pickle, framed
    by ``send_bytes``), so the wire is unchanged.  Result messages also
    yield the worker-side latency the worker reports for each request.
    """

    def __init__(self, conn):
        self._conn = conn
        self.counts = {"sent": 0, "received": 0, "bytes": 0, "results": 0, "worker_s": 0.0}

    def send(self, message) -> None:
        """Pickle and send one message, counting it."""
        payload = ForkingPickler.dumps(message)
        self.counts["sent"] += 1
        self.counts["bytes"] += len(payload) + 4
        self._conn.send_bytes(payload)

    def recv(self):
        """Receive and unpickle one message, counting it."""
        payload = self._conn.recv_bytes()
        counts = self.counts
        counts["received"] += 1
        counts["bytes"] += len(payload) + 4
        message = ForkingPickler.loads(payload)
        if message[0] == "result":
            counts["results"] += 1
            counts["worker_s"] += message[4]
        return message

    def __getattr__(self, name):
        return getattr(self._conn, name)


class ServeFabricWorkload(ServingWorkload):
    """``FabricGateway`` over one spawned ``ideal-digital`` worker.

    Zero service time and the worker's default model: the time is gateway,
    pipe and worker overhead, with no weight hashing and no mesh.
    """

    name = "serve_fabric"
    rtol = 1e-12
    #: gateway and worker keep both CPUs busy: time the reference on each
    all_cpus = True

    async def setup(self, tracer=None) -> None:
        """Compute references, spawn the worker and wait for its handshake."""
        self.weights = _rng(self.seed, 6).normal(size=(self.features, self.features))
        self.inputs = self._inputs()
        self.references = IdealDigitalBackend().matmul(self.weights, self.inputs.T).T[None]
        self.worker_trace = None
        if tracer is not None and self.trace_dir is not None:
            self.worker_trace = os.path.join(
                self.trace_dir, f"{self.name}-seed{self.seed}-worker.npz"
            )
            if os.path.exists(self.worker_trace):
                os.remove(self.worker_trace)
        spec = WorkerSpec(
            name="w0",
            engine_factory="perfbench.fabric_worker:make_engine",
            engine_kwargs={"weights": self.weights, "trace_path": self.worker_trace},
            max_batch=self.max_batch,
            max_queue_depth=4 * self.clients,
        )
        self.telemetry = ServingTelemetry()
        self.gateway = FabricGateway(
            [spec], max_inflight=self.clients, max_pending=4 * self.clients,
            telemetry=self.telemetry,
        )
        await self.gateway.start()
        self.pipes = []
        if tracer is not None:
            for handle in self.gateway.handles:
                handle.conn = CountingConnection(handle.conn)
                self.pipes.append(handle.conn)

    def pick(self, client: int, sequence: int):
        """A client's ``sequence``-th request as ``(0, input index)``."""
        return (0, (client * 37 + sequence * 13) % self.n_inputs)

    def submit(self, key):
        """Submit one request against the default model; returns its awaitable."""
        return self.gateway.submit(self.inputs[key[1]])

    async def teardown(self) -> None:
        """Drain the gateway and join the worker."""
        await self.gateway.shutdown(drain=True)

    def trace_hooks(self, tracer) -> None:
        """Spans around the gateway telemetry calls."""
        self._telemetry_hooks(tracer, self.telemetry)
        tracer.span(self.telemetry, "on_batch", "serving.telemetry.on_batch")

    def pipe_counters(self) -> dict:
        """Message, byte and worker-latency totals over every pipe."""
        totals = {}
        for pipe in self.pipes:
            for key, value in pipe.counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def worker_spans(self, windows) -> dict:
        """Worker-side engine calls that started inside traced windows."""
        if self.worker_trace is None or not os.path.exists(self.worker_trace):
            return {"calls": 0, "columns": 0.0, "busy_s": 0.0}
        with np.load(self.worker_trace) as spans:
            start, duration, columns = spans["start"], spans["duration"], spans["columns"]
        inside = np.zeros(start.shape, dtype=bool)
        for low, high in windows:
            inside |= (start >= low) & (start < high)
        return {
            "calls": int(inside.sum()),
            "columns": float(columns[inside].sum()),
            "busy_s": float(duration[inside].sum()),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (SoCPlanWorkload, RiscvOffloadWorkload, ServeInprocWorkload, ServeFabricWorkload)
}
