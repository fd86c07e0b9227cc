#!/usr/bin/env python3
"""End-to-end benchmark of the repro program: train, convert, simulate,
serve and export one model per workload, and check every output.

Run from the repository root::

    python3 e2ebench/run.py --workload micro-t16 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the program's public calls and prints the
per-layer metrics instead (spans go to ``.bench_out/``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # before numpy and the program are imported

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from checks import (Ledger, check_counts_equal, check_fire_once,
                    check_predictions, check_sops, check_value, fanout,
                    self_test)
from serving import (ClosedLoop, ServerProcess, program_env,
                     request_body_bytes, scrape_worker_counts)
from tracing import SpanIndex, Tracer, patched, span_cost_s

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Model spec the served bundle is published and requested under.
MODEL = "bench:latest"
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: Nominal length of one measurement round; ``--seconds`` buys
#: ``seconds / ROUND_S`` rounds (at least :data:`MIN_ROUNDS`).
ROUND_S = 2.5
MIN_ROUNDS = 3
#: Shortest timed simulation sample; cheaper runs repeat within one.
MIN_SAMPLE_S = 0.25
#: Test images per timed simulation or netlist sample (two full
#: ``max_batch`` chunks): short samples, many of them.
TIMING_IMAGES = 64
#: Images checked on every backend (dense == event == auto): the first
#: ``max_batch`` chunk, so the dense reference is the same batch.
PARITY_IMAGES = 32
#: Test images the HTTP clients draw their requests from.
REQUEST_POOL = 64
CLIENTS = 2
#: Untimed requests per client after each server start.
WARMUP_REQUESTS = 5


@dataclass(frozen=True)
class Workload:
    window: int              # T
    tau: float               # tau
    epochs: int              # CAT schedule length
    served: str              # scheme the bundle is served under
    workers: int             # repro serve --workers
    shards: bool             # train streamed from a shard directory
    augment: bool            # random crop + flip during training
    round_requests: int      # timed requests per client and round
    fault_round: bool        # also run the fixed VGG-16 fault round


WORKLOADS: Dict[str, Workload] = {
    # Compute is ~0.3 ms per image, so per-call engine overhead and the
    # serving path's HTTP / JSON / batch-wait cost dominate.
    "micro-t16": Workload(
        window=16, tau=4.0, epochs=32, served="ttfs-closed-form",
        workers=0, shards=False, augment=False,
        round_requests=30, fault_round=True),
    # The T2FSNN scale: per-timestep walks cost ~5x more, which moves the
    # dense/event crossover; serving is bound by execute time and worker
    # IPC; training streams augmented batches from shards.
    "micro-t80": Workload(
        window=80, tau=16.0, epochs=32, served="ttfs-timestep",
        workers=2, shards=True, augment=True,
        round_requests=15, fault_round=False),
}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------

def host_facts() -> Dict[str, Any]:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (AttributeError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")},
        "platform": platform.platform(),
    }


#: What a program run imports before it can do anything.
IMPORTS = ("import numpy, repro, repro.api, repro.cat, repro.engine, "
           "repro.serve, repro.targets")


def import_seconds(first: float, repeats: int = 2) -> float:
    """Median import time: this process's own (``first``) and that of
    ``repeats`` fresh interpreters."""
    import subprocess

    code = ("import time; t = time.perf_counter(); " + IMPORTS
            + "; print(time.perf_counter() - t)")
    samples = [first]
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code],
                             env=program_env(SRC),
                             capture_output=True, text=True, check=True)
        samples.append(float(out.stdout))
    return median(samples)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    return float(statistics.quantiles(values, n=10)[8])


def iqr_share(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def spikes_of(state) -> int:
    if hasattr(state, "num_spikes"):            # SpikeTrain / EventStream
        return int(state.num_spikes)
    if getattr(state, "per_step", False):        # rate: per-step fires
        return int((state.data != 0).sum())
    return 0                                     # analog input / readout


class SchemeProbe:
    """Wrappers on one scheme instance's walk hooks (the calls
    ``run_pipeline`` makes): spans when tracing, the execution backend
    each weight layer recorded in its ``LayerTrace``, and optionally
    per-layer spike/SOP counts read off the states flowing between hooks."""

    HOOKS = {"encode_input": "engine.encode", "weight_layer": "engine.weight",
             "pool": "engine.pool", "flatten": "engine.flatten",
             "finalize": "engine.finalize", "merge": "engine.merge"}

    def __init__(self, scheme, tracer, count: bool):

        self.scheme = scheme
        self.images = 0
        self.spikes = 0
        self.sops = 0
        self.layers: List[tuple] = []    # (name, spikes, neurons, repeats)
        self.backends: List[str] = []    # per weight-layer execution
        for hook, span_name in self.HOOKS.items():
            original = getattr(scheme, hook)

            def wrapped(*args, _original=original, _hook=hook,
                        _span=span_name):
                ctx = args[-1] if _hook == "weight_layer" else None
                recorded = len(ctx.traces) if ctx is not None else 0
                with tracer.span(_span):
                    out = _original(*args)
                if ctx is not None:
                    self.backends.extend(t.backend for t in
                                         ctx.traces[recorded:]
                                         if t.backend is not None)
                if count:
                    self._count(_hook, args, out)
                return out
            setattr(scheme, hook, wrapped)

    def _count(self, hook, args, out) -> None:
        if hook == "encode_input":
            self.images += len(args[0])
            self.spikes += spikes_of(out)
        elif hook == "weight_layer":
            spec, state = args[0], args[1]
            self.sops += spikes_of(state) * fanout(spec)
            self.spikes += spikes_of(out)
            if hasattr(out, "num_neurons"):     # a firing TTFS layer
                indices = getattr(out, "indices", None)
                repeats = (0 if indices is None
                           else len(indices) - len(np.unique(indices)))
                self.layers.append((f"layer{len(self.layers)}",
                                    spikes_of(out), int(out.num_neurons),
                                    repeats))

    def remove(self) -> None:
        for hook in self.HOOKS:
            self.scheme.__dict__.pop(hook, None)


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------

class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):

        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(enabled=trace)
        self.ledger = Ledger()
        self.work = OUT / f"work-{os.getpid()}"
        self.e2e: Dict[str, tuple] = {}
        self.setup_parts: Dict[str, List[float]] = {k: [] for k in (
            "data.generate_s", "cat.convert_s", "serve.bundle_save_s",
            "targets.export_s", "serve.ready_s")}
        self.setup_totals: List[float] = []
        self.layer: Dict[str, tuple] = {}
        self.notes: List[str] = []
        self.server = None

    def span(self, name, **meta):
        return self.tracer.span(name, **meta)

    # -- set-up --------------------------------------------------------
    def generate_data(self, rep_dir: Path):
        from repro.data import mini_cifar10, open_shards, write_shards

        dataset = mini_cifar10(seed=self.seed)
        if self.w.shards:
            write_shards(dataset, rep_dir / "shards", shard_size=128)
            dataset = open_shards(rep_dir / "shards")
        return dataset

    def train(self, dataset):
        """CAT training of the served model.  Throughput is train images
        over the estimated training time: per CAT stage, the median time
        of one ``CATTrainer.train_epoch`` times the stage's epochs, so a
        burst of other load on the host that slows a few epochs moves it
        little.  One untimed step of a throwaway model first pays the
        process's one-off warm-up, which a long training run never sees."""
        from repro.api.presets import micro_train_config
        from repro.cat import CATTrainer
        from repro.nn import init as nninit
        from repro.nn import vgg_micro
        from repro.optim import SGD
        from repro.tensor import Tensor, cross_entropy

        cfg = dataclasses.replace(
            micro_train_config(self.w.window, self.w.tau, self.w.epochs),
            augment=self.w.augment).cat_config(seed=self.seed)
        scratch = vgg_micro(num_classes=dataset.num_classes,
                            input_size=dataset.image_shape[-1])
        loss = cross_entropy(scratch(Tensor(dataset.train_head(
            cfg.batch_size))), np.zeros(cfg.batch_size, dtype=np.int64))
        loss.backward()
        SGD(scratch.parameters(), lr=cfg.lr).step()
        nninit.seed(self.seed)
        model = vgg_micro(num_classes=dataset.num_classes,
                          input_size=dataset.image_shape[-1])
        epoch_s: Dict[str, List[float]] = {}

        def timed(train_epoch):
            def timed_epoch(epoch):
                t0 = time.perf_counter()
                try:
                    return train_epoch(epoch)
                finally:
                    epoch_s.setdefault(cfg.stage_at(epoch), []).append(
                        time.perf_counter() - t0)
            return timed_epoch
        with self.span("phase.train"), train_patches(self.tracer):
            with self.span("cat.train"):
                trainer = CATTrainer(model, dataset, cfg)
                trainer.train_epoch = timed(trainer.train_epoch)
                result = trainer.run()
        train_s = sum(len(v) * median(v) for v in epoch_s.values())
        images = cfg.epochs * len(dataset.train_y)
        self.e2e["train_images_per_s"] = (images / train_s, "images/s")
        for record in result.history:
            self.ledger.record(f"train epoch {record.epoch} loss",
                               np.isfinite(record.train_loss),
                               f"loss {record.train_loss}")
        self.notes.append(
            f"train: {cfg.epochs} epochs ("
            + ", ".join(f"{k} {len(v)}" for k, v in epoch_s.items())
            + f"), {images} images, {sum(map(sum, epoch_s.values())):.2f} s "
            f"in train_epoch, final test acc {result.final_test_acc:.3f}")
        return model, cfg

    def setup_rep(self, rep: int):
        """One set-up: data (+ shards), conversion, bundle save and
        publish, netlist export, server (re)start to the first answered
        ``/predict``.  The first one also trains, timed apart."""
        from repro.api.config import ConvertConfig, SimulateConfig
        from repro.cat import convert
        from repro.serve import ModelArtifact, ModelRegistry, predict_remote
        from repro.targets import export_artifact

        sim = SimulateConfig()
        rep_dir = self.work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        with self.span("phase.setup", rep=rep):
            t0 = time.perf_counter()
            with self.span("data.generate"):
                dataset = self.generate_data(rep_dir)
            t1 = time.perf_counter()
        if rep == 0:
            self.model, self.cfg = self.train(dataset)
        with self.span("phase.setup", rep=rep):
            t2 = time.perf_counter()
            with self.span("cat.convert"):
                snn = convert(self.model, self.cfg,
                              calibration=dataset.train_head(
                                  ConvertConfig().calibration))
            t3 = time.perf_counter()
            with self.span("serve.bundle_save"):
                staged = ModelArtifact.save(
                    rep_dir / "staging", snn, name=MODEL.split(":")[0],
                    scheme=self.w.served, backend=sim.backend,
                    max_batch=sim.max_batch, input_shape=dataset.image_shape)
                _, _, artifact = ModelRegistry(
                    rep_dir / "registry").publish(staged)
            t4 = time.perf_counter()
            with self.span("targets.export"):
                netlist = export_artifact(artifact, "pynn-netlist",
                                          rep_dir / "netlist")
            t5 = time.perf_counter()
            if self.server is not None:
                self.server.stop()
                self.server = None
            t6 = time.perf_counter()
            with self.span("serve.ready"):
                self.server = ServerProcess(SRC, rep_dir / "registry",
                                            self.w.workers,
                                            rep_dir / "serve.log")
                predict_remote(self.server.url, MODEL, dataset.test_x[0],
                               timeout=120)
            t7 = time.perf_counter()
        for key, dt in zip(self.setup_parts, (t1 - t0, t3 - t2, t4 - t3,
                                              t5 - t4, t7 - t6)):
            self.setup_parts[key].append(dt)
        self.setup_totals.append((t1 - t0) + (t5 - t2) + (t7 - t6))
        if rep == 0:
            self.snn = snn
        else:
            self.ledger.record(
                f"set-up {rep} converts the same network",
                all(np.array_equal(a.weight, b.weight)
                    and np.array_equal(a.bias, b.bias)
                    for a, b in zip(snn.weight_layers,
                                    self.snn.weight_layers))
                and snn.output_scale == self.snn.output_scale)
        self.netlist_path = netlist
        self.fresh_server = True
        return dataset

    def setup_metrics(self) -> None:
        import_s = import_seconds(self.import_s)
        self.e2e["setup_s"] = (import_s + median(self.setup_totals), "s")
        for key, values in self.setup_parts.items():
            self.layer[key] = (median(values), "s")
        self.notes.append(
            f"setup: imports {import_s:.2f} s + median of "
            + ", ".join(f"{t:.2f}" for t in self.setup_totals) + " s")

    # -- simulation ----------------------------------------------------
    def check_simulation(self, dataset, snn):
        """One untimed run of every scheme at the program's default
        backend and ``max_batch``, with the output checks."""
        from repro.api.config import SimulateConfig
        from repro.engine import (PipelineRunner, available_schemes,
                                  create_scheme, result_predictions)

        sim = SimulateConfig()
        images, labels = dataset.test_x, dataset.test_y
        n = len(images)
        runners, results, probes, check_s = {}, {}, {}, {}
        with self.span("phase.check"), sim_patches(self.tracer):
            for name in available_schemes():
                scheme = create_scheme(name, snn)
                runner = PipelineRunner(scheme, max_batch=sim.max_batch,
                                        backend=sim.backend)
                probe = SchemeProbe(scheme, self.tracer, count=True)
                t0 = time.perf_counter()
                with self.span("engine.run", scheme=name,
                               backend=sim.backend):
                    results[name] = runner.run(images)
                check_s[name] = time.perf_counter() - t0
                probe.remove()
                runners[name], probes[name] = runner, probe
        preds = {k: result_predictions(r) for k, r in results.items()}

        # 1. TTFS computes the quantised ANN: value-domain argmax
        value = np.concatenate([
            snn.forward_value(images[s:s + sim.max_batch]).argmax(axis=1)
            for s in range(0, n, sim.max_batch)])
        for name in ("ttfs-closed-form", "ttfs-timestep"):
            check_predictions(self.ledger, f"{name} vs value forward",
                              preds[name], value)
        # 2. one spike per neuron per image, every TTFS scheme
        for name in ("ttfs-closed-form", "ttfs-timestep", "ttfs-early",
                     "fixed-point"):
            check_fire_once(self.ledger, f"{name} fires once",
                            probes[name].layers)
        # 3. SOPs = input spikes x fan-out of the weight shape
        for name in ("ttfs-closed-form", "ttfs-timestep", "ttfs-early"):
            check_sops(self.ledger, f"{name} sops", results[name].traces,
                       snn.weight_layers)
        # 7b. the trained SNN is well above chance on held-out images
        accuracy = float((preds["ttfs-closed-form"] == labels).mean())
        check_value(self.ledger, "held-out accuracy >= 3x chance",
                    accuracy >= 3.0 / dataset.num_classes,
                    f"accuracy {accuracy:.3f}")
        # 4. the other backends agree on the first chunk
        self.backend_parity(snn, images[:PARITY_IMAGES])

        for name, probe in probes.items():
            self.layer[f"engine.spikes_per_image.{name}"] = (
                probe.spikes / probe.images, "spikes/image")
            self.layer[f"engine.sops_per_image.{name}"] = (
                probe.sops / probe.images, "sops/image")

        self.notes.append(f"simulate: {n} test images, backend "
                          f"{sim.backend}, max_batch {sim.max_batch}, "
                          f"accuracy {accuracy:.3f}")
        return runners, preds, check_s

    def measure(self, dataset, runners, check_s) -> None:
        """The timed rounds.  Each runs every scheme over the first
        :data:`TIMING_IMAGES` test images, one serve block and one netlist
        execution, so every end-to-end figure is sampled across the whole
        measuring window; figures are medians over rounds, which keeps a
        burst of load from elsewhere on the host from moving them.  The
        traced run sends the same requests but leaves the simulation to
        :meth:`engine_matrix`."""
        from repro.targets import execute_target

        images = dataset.test_x[:TIMING_IMAGES]
        n = len(images)
        share = n / len(dataset.test_x)
        rounds = max(MIN_ROUNDS, int(self.seconds / ROUND_S))
        repeat = {name: max(1, math.ceil(MIN_SAMPLE_S / (s * share)))
                  for name, s in check_s.items()}
        rates: Dict[str, List[float]] = {
            f"sim_images_per_s.{name}": [] for name in runners}
        rates["netlist_images_per_s"] = []
        every = max(1, rounds // SETUP_REPS)
        setup_rounds = list(range(every, rounds, every))[:SETUP_REPS - 1]
        for r in range(rounds):
            if r in setup_rounds:
                self.setup_rep(setup_rounds.index(r) + 1)
            if not self.tracer.enabled:
                for name, runner in runners.items():
                    t0 = time.perf_counter()
                    for _ in range(repeat[name]):
                        runner.run(images)
                    rates[f"sim_images_per_s.{name}"].append(
                        n * repeat[name] / (time.perf_counter() - t0))
            self.serve_block(r)
            if not self.tracer.enabled:
                t0 = time.perf_counter()
                for _ in range(repeat["netlist"]):
                    execute_target(self.netlist_path, images)
                rates["netlist_images_per_s"].append(
                    n * repeat["netlist"] / (time.perf_counter() - t0))
        rates["serve_images_per_s"] = [count / wall for wall, count
                                       in self.serve_blocks]
        self.serve_metrics()
        if self.tracer.enabled:
            return
        for name, samples in rates.items():
            self.e2e[name] = (median(samples), "images/s")
        self.notes.append(f"measure: {rounds} rounds; spread over rounds "
                          "(IQR/median): " + ", ".join(
                              f"{k} {100 * iqr_share(v):.0f}%"
                              for k, v in rates.items()))

    def trace_overhead(self, runner, images) -> float:
        """Traced over untraced run time of one warm runner, minus one."""
        t0 = time.perf_counter()
        runner.run(images)
        plain = time.perf_counter() - t0
        probe = SchemeProbe(runner.scheme, self.tracer, count=False)
        t0 = time.perf_counter()
        with self.span("bench.overhead"):
            runner.run(images)
        traced = time.perf_counter() - t0
        probe.remove()
        return traced / plain - 1.0

    def backend_parity(self, snn, subset):
        from repro.api.config import SimulateConfig
        from repro.engine import (BACKENDS, PipelineRunner, create_scheme,
                                  result_predictions)

        def counts(result):
            if hasattr(result, "traces"):
                return ([t.output_spikes for t in result.traces]
                        + [t.sops for t in result.traces])
            if hasattr(result, "spikes_per_layer"):
                return list(result.spikes_per_layer)
            return [result.max_membrane_drift]

        max_batch = SimulateConfig().max_batch
        for name in ("ttfs-early", "rate", "fixed-point"):
            outs = {}
            for backend in BACKENDS:
                runner = PipelineRunner(create_scheme(name, snn),
                                        max_batch=max_batch, backend=backend)
                outs[backend] = runner.run(subset)
            for backend in BACKENDS:
                if backend == "dense":
                    continue
                check_predictions(self.ledger, f"{name} {backend} vs dense",
                                  result_predictions(outs[backend]),
                                  result_predictions(outs["dense"]))
                check_counts_equal(self.ledger,
                                   f"{name} {backend} vs dense counts",
                                   counts(outs[backend]),
                                   counts(outs["dense"]))

    def engine_matrix(self, snn, images):
        """Traced: every scheme under every backend, hook by hook."""
        from repro.api.config import SimulateConfig
        from repro.engine import (BACKENDS, PipelineRunner,
                                  available_schemes, create_scheme)

        max_batch = SimulateConfig().max_batch
        n = len(images)
        runners = {}
        for name in available_schemes():
            for backend in BACKENDS:
                runner = PipelineRunner(create_scheme(name, snn),
                                        max_batch=max_batch, backend=backend)
                runner.run(images[:max_batch])        # warm lazy plans
                runners[name, backend] = runner
        with self.span("phase.simulate"), sim_patches(self.tracer):
            for (name, backend), runner in runners.items():
                probe = SchemeProbe(runner.scheme, self.tracer, count=False)
                first = len(self.tracer.spans)
                t0 = time.perf_counter()
                with self.span("engine.run", scheme=name, backend=backend):
                    runner.run(images)
                wall = time.perf_counter() - t0
                probe.remove()
                mine = self.tracer.spans[first:]
                key = f"{name}.{backend}"
                self.layer[f"engine.ms_per_image.{key}"] = (1e3 * wall / n,
                                                            "ms")
                for hook, label in (("engine.encode", "encode"),
                                    ("engine.weight", "weight"),
                                    ("engine.pool", "pool")):
                    total = sum(s.duration for s in mine if s.name == hook)
                    self.layer[f"engine.{label}_ms_per_image.{key}"] = (
                        1e3 * total / n, "ms")
                if backend == "auto" and probe.backends:
                    self.layer[f"engine.auto_event_share.{name}"] = (
                        probe.backends.count("event") / len(probe.backends),
                        "share")

    # -- serving -------------------------------------------------------
    def prepare_serving(self, dataset, snn) -> None:
        """The request pool and its offline answers: the served scheme
        and backend, run image by image."""
        from repro.api.config import SimulateConfig
        from repro.engine import (PipelineRunner, create_scheme,
                                  result_predictions)

        rng = np.random.default_rng(self.seed)
        pool_idx = rng.permutation(len(dataset.test_y))[:REQUEST_POOL]
        self.pool = dataset.test_x[pool_idx]
        runner = PipelineRunner(create_scheme(self.w.served, snn),
                                max_batch=1,
                                backend=SimulateConfig().backend)
        self.offline_pred, self.offline_spikes = [], []
        for result in runner.stream(self.pool):
            self.offline_pred.append(int(result_predictions(result)[0]))
            self.offline_spikes.append(int(result.total_spikes))
        self.replies, self.serve_blocks = [], []

    def serve_block(self, r: int) -> None:
        """One closed-loop block of requests, every reply checked."""
        loop = ClosedLoop(self.server.url, MODEL, self.pool, CLIENTS,
                          WARMUP_REQUESTS if self.fresh_server else 0,
                          self.w.round_requests,
                          start=len(self.replies) // CLIENTS)
        self.fresh_server = False
        with self.span("phase.serve", round=r):
            loop.run(self.tracer, self.tracer.current())
        self.check_replies(loop.replies)
        self.replies.extend(loop.replies)
        self.serve_blocks.append((loop.wall_s, sum(
            not reply.warmup for reply in loop.replies)))

    def check_replies(self, replies) -> None:
        """5. each answer equals the offline prediction for its image;
        its ``total_spikes`` equals the offline count of the images in
        its micro-batch (its own, plus the other client's in-flight one
        when the server coalesced them)."""
        for r in replies:
            what = f"/predict client {r.client} image {r.index}"
            if r.response is None:
                self.ledger.record(what, False, r.error)
                continue
            metrics = r.response["metrics"]
            got = r.response["predictions"]
            own = self.offline_spikes[r.index]
            if sum(metrics["batch_sizes"]) == 1:
                expected = {own}
            else:
                expected = {own + self.offline_spikes[o.index]
                            for o in replies if o.client != r.client
                            and o.start < r.end and o.end > r.start}
            ok = (got == [self.offline_pred[r.index]]
                  and metrics.get("total_spikes") in expected)
            check_value(self.ledger, what, ok,
                        f"prediction {got} vs {self.offline_pred[r.index]}"
                        f", spikes {metrics.get('total_spikes')} vs "
                        f"{sorted(expected)}")

    def serve_metrics(self) -> None:
        timed = [r for r in self.replies if not r.warmup and r.response]
        lat = [r.latency_s for r in timed]
        self.e2e["serve_p50_ms"] = (1e3 * median(lat), "ms")
        self.e2e["serve_p90_ms"] = (1e3 * p90(lat), "ms")
        ms = [r.response["metrics"] for r in timed]
        self.layer["serve.http_ms_p50"] = (1e3 * median(
            [r.latency_s - m["latency_s"] for r, m in zip(timed, ms)]), "ms")
        self.layer["serve.queue_wait_ms_p50"] = (
            1e3 * median([m["queue_wait_s"] for m in ms]), "ms")
        self.layer["serve.execute_ms_p50"] = (
            1e3 * median([m["execute_s"] for m in ms]), "ms")
        sizes = [b for m in ms for b in m["batch_sizes"]]
        self.layer["serve.batch_size_mean"] = (sum(sizes) / len(sizes),
                                               "images")
        self.layer["serve.request_kb"] = (statistics.fmean(
            request_body_bytes(MODEL, image) for image in self.pool)
            / 1024.0, "KB")
        counts = scrape_worker_counts(self.server.url)
        share = max(counts.values()) / sum(counts.values()) if counts else 1.0
        self.layer["serve.worker_max_share"] = (share, "share")
        self.notes.append(
            f"serve: {self.w.served} on {max(self.w.workers, 1)} "
            f"session(s), {CLIENTS} closed-loop clients, {len(timed)} timed "
            f"single-image requests in "
            f"{sum(wall for wall, _ in self.serve_blocks):.2f} s")

    # -- export target -------------------------------------------------
    def check_netlist(self, dataset, netlist_path, preds) -> float:
        """6. the exported netlist predicts what the engine predicts;
        returns the seconds the check run took."""
        from repro.targets import execute_target

        images = dataset.test_x
        t0 = time.perf_counter()
        with self.span("phase.netlist"):
            with self.span("targets.execute"):
                got = execute_target(netlist_path, images)
        seconds = time.perf_counter() - t0
        check_predictions(self.ledger, "netlist vs engine", got,
                          preds[self.w.served])
        return seconds

    # -- the known fault -----------------------------------------------
    def fault_round(self):
        """VGG-16 at 32x32, T=16: paths that reduce one membrane in a
        different order fire some neurons one step apart.  Fixed inputs
        (program-default data seed, init seed 0), so the failed count is
        the same in every run whatever ``--seed``.  Per image, three
        comparisons the method says must hold: ``ttfs-timestep`` predicts
        the value-domain argmax, fires the per-layer spikes
        ``ttfs-closed-form`` fires, and ``ttfs-closed-form`` fires the
        same on the event backend as on dense."""
        from repro.cat import CATConfig, convert
        from repro.data import synthetic_cifar10
        from repro.engine import (PipelineRunner, create_scheme,
                                  result_predictions)
        from repro.nn import init as nninit
        from repro.nn import vgg16

        def simulate(scheme, backend, image):
            result = PipelineRunner(create_scheme(scheme, snn), max_batch=1,
                                    backend=backend).run(image)
            return (int(result_predictions(result)[0]),
                    [t.output_spikes for t in result.traces])

        with self.span("phase.fault_round"):
            nninit.seed(0)
            data = synthetic_cifar10(train_per_class=2, test_per_class=1)
            snn = convert(vgg16(num_classes=10), CATConfig(window=16, tau=4.0),
                          calibration=data.train_x[:16])
            for i, image in enumerate(data.test_x[:4]):
                image = image[None]
                value = int(snn.forward_value(image).argmax(axis=1)[0])
                stepped = simulate("ttfs-timestep", "dense", image)
                closed = simulate("ttfs-closed-form", "dense", image)
                event = simulate("ttfs-closed-form", "event", image)
                for what, got, expected in (
                        ("ttfs-timestep/dense vs value forward prediction",
                         stepped[0], value),
                        ("ttfs-timestep vs ttfs-closed-form spikes",
                         stepped[1], closed[1]),
                        ("ttfs-closed-form event vs dense", event, closed)):
                    self.ledger.record(f"vgg16 image {i} {what}",
                                       got == expected,
                                       f"{got} vs {expected}"
                                       if what.endswith("prediction") else
                                       "per-layer spikes differ",
                                       known_fault=True)

    # -- running -------------------------------------------------------
    def run(self, import_s: float) -> None:
        self.import_s = import_s
        problem = self_test()
        if problem:
            self.ledger.failures.append(problem)
        self.work.mkdir(parents=True)
        try:
            dataset = self.setup_rep(0)
            snn = self.snn
            runners, preds, check_s = self.check_simulation(dataset, snn)
            check_s["netlist"] = self.check_netlist(dataset,
                                                    self.netlist_path, preds)
            self.prepare_serving(dataset, snn)
            self.measure(dataset, runners, check_s)
            self.setup_metrics()
            self.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
        finally:
            if self.server is not None:
                self.server.stop()
                self.server = None
            shutil.rmtree(self.work, ignore_errors=True)
        if self.tracer.enabled:
            self.overhead = {name: self.trace_overhead(runner,
                                                       dataset.test_x)
                             for name, runner in runners.items()}
            self.engine_matrix(snn, dataset.test_x)
        if self.w.fault_round:
            self.fault_round()

    def report(self) -> Dict[str, Any]:
        metrics = self.layer if self.tracer.enabled else self.e2e
        return {"correct": self.ledger.correct,
                "attempted": self.ledger.attempted,
                "failed": self.ledger.failed,
                "metrics": {k: {"value": float(v), "unit": u}
                            for k, (v, u) in sorted(metrics.items())}}


# ----------------------------------------------------------------------
# patch sets for the traced run
# ----------------------------------------------------------------------

def train_patches(tracer):
    import repro.cat.trainer as trainer
    import repro.tensor.conv as conv
    from repro.nn.layers import ActivationSlot
    from repro.nn.vgg import VGG
    from repro.optim import SGD
    from repro.tensor import Tensor

    def timed_loader(make):
        def make_timed(*args, **kwargs):
            return TimedLoader(make(*args, **kwargs), tracer)
        return make_timed

    return patched(tracer, [
        (trainer, "make_train_loader", timed_loader),
        (trainer, "evaluate", "cat.evaluate"),
        (trainer, "cross_entropy", "tensor.loss"),
        (trainer, "accuracy", "tensor.accuracy"),
        (VGG, "forward", "nn.forward"),
        (ActivationSlot, "forward", "cat.activation"),
        (conv, "im2col", "tensor.im2col"),
        (conv, "col2im", "tensor.col2im"),
        (Tensor, "backward", "tensor.backward"),
        (SGD, "zero_grad", "optim.zero_grad"),
        (SGD, "step", "optim.step"),
    ])


def sim_patches(tracer):
    from repro.cat.convert import ConvertedSNN

    # fixed-point runs the value-domain reference inside its own run()
    return patched(tracer, [(ConvertedSNN, "forward_value",
                             "cat.forward_value")])


class TimedLoader:
    """A train loader whose every ``next()`` is a ``data.wait`` span."""

    def __init__(self, loader, tracer):
        self._loader = loader
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def __iter__(self):
        iterator = iter(self._loader)
        while True:
            with self._tracer.span("data.wait"):
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
            yield batch


# ----------------------------------------------------------------------
# traced-run analysis
# ----------------------------------------------------------------------

TRAIN_LAYERS = {
    "data.wait_ms_per_step": "data.wait",
    "nn.forward_ms_per_step": "nn.forward",
    "tensor.backward_ms_per_step": "tensor.backward",
    "optim.step_ms_per_step": "optim.step",
    "tensor.im2col_ms_per_step": "tensor.im2col",
    "tensor.col2im_ms_per_step": "tensor.col2im",
    "cat.activation_ms_per_step": "cat.activation",
}


def analyse_trace(bench: Bench) -> List[str]:
    """Per-step training self times, phase coverage and overhead lines."""
    index = SpanIndex(bench.tracer.spans)
    train = index.named("phase.train")[0]
    in_train = [s for s in index.descendants(train)
                if not s.name == "cat.evaluate"
                and not index.has_ancestor(s, "cat.evaluate")]
    steps = sum(1 for s in in_train if s.name == "optim.step")
    for metric, name in TRAIN_LAYERS.items():
        total = sum(index.self_time(s) for s in in_train if s.name == name)
        bench.layer[metric] = (1e3 * total / steps, "ms")
    lines = []
    coverage = {
        "train": index.coverage(train, containers={"cat.train"}),
        "simulate": min(index.coverage(s, containers={"engine.run"})
                        for s in index.named("phase.simulate")),
        "serve": index.coverage(index.named("phase.serve")[0]),
    }
    lines.append("trace coverage (share of phase wall time inside layer "
                 "spans): " + ", ".join(f"{k} {100 * v:.1f}%"
                                        for k, v in coverage.items()))
    cost = span_cost_s()
    wall = sum(s.duration for s in index.spans if s.parent_id is None)
    lines.append(
        "trace overhead: simulate (default backend) "
        + ", ".join(f"{k} {100 * v:+.1f}%" for k, v in
                    sorted(bench.overhead.items()))
        + f" vs an untraced run of the same runner; {len(index.spans)} "
        f"spans x {1e6 * cost:.2f} us = {100 * len(index.spans) * cost / wall:.2f}% "
        "of traced wall time")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="measuring time: seconds / 2.5 rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program at {SRC / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    exec(IMPORTS)
    import_s = time.perf_counter() - T_START

    OUT.mkdir(exist_ok=True)
    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run(import_s)
    for note in bench.notes:
        print(note)
    if bench.tracer.enabled:
        for line in analyse_trace(bench):
            print(line)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        bench.tracer.dump(path, workload=args.workload, seed=args.seed,
                          host=host)
        print(f"spans: {path}")
    print(f"checks: {bench.ledger.attempted} operations, "
          f"{bench.ledger.failed} failed ({bench.ledger.known_failed} from "
          "the known VGG-16 fault)")
    for failure in bench.ledger.known_failures:
        print(f"known fault: {failure}")
    for failure in bench.ledger.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps(bench.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
