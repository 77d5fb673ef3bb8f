"""The benchmark's three workloads: seeded inputs, one item at a time.

Every call into the simulator goes through a module attribute
(``dataflow.run_network``, not a name imported from it), so the tracer and
tests can wrap those functions without editing ``src/``.

* ``cifar10_verify``: the cifar10 preset at T=8, one seeded bundle, one
  distinct seeded image per item through the whole ``vecspike run
  --verify`` sequence.  The tile kernel dominates; the oracle is ~17%.
* ``mnist_batch``: the mnist preset at T=8 on the ``run`` path without
  ``--verify`` (engine, memmodel, report).  Maps are small, so per-call
  overhead dominates.  Each item is checked against the oracle after the
  timed region, so an oracle-only change must not move this workload.
* ``traffic_sweep``: ``memmodel`` alone.  Presets plus seeded random
  networks, crossed with SRAM capacity scalings, every fusion plan of
  singletons and adjacent pairs, and a few T values.  ``dataflow`` and
  ``core`` stay idle, so an engine change must not move this workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from vecspike import core, dataflow, memmodel, netconfig, report
from vecspike.arch import HardwareConfig, peak_gops
from vecspike.errors import CapacityFault, FixedPointOverflowError

TIME_STEPS = 8

# Only reached from the smoke test: the same code paths on networks small
# enough to finish a cifar10-shaped verified item in well under a second.
TINY_CIFAR = ("16Conv(encoding)-16Conv-MP2-32Conv-MP2-32fc-10fc", (3, 16, 16))
TINY_TIME_STEPS = 2

SRAM_FIELDS = (
    "spike_sram_bytes",
    "weight_sram_bytes",
    "membrane_sram_bytes",
    "temp_sram_bytes",
    "boundary_sram_bytes",
)


@dataclass
class ItemResult:
    record: dict  # modeled numbers only; these enter the digest
    stats: dict = field(default_factory=dict)  # per-item counts for tracing
    failure: str | None = None  # set when the item's output is wrong


def image_seed(seed: int, item: int) -> int:
    """Item 0 of seed s uses input seed s, as ``vecspike run --seed s`` does."""
    return seed * 1_000_003 + item


def record_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def report_record(report: dict) -> dict:
    """The modeled numbers of one JSON run report that enter the digest."""
    totals = report["cycle_totals"]
    return {
        "cycles": totals["total_cycles"],
        "warmup_cycles": totals["warmup_cycles"],
        "active_pe_cycles": totals["active_pe_cycles"],
        "dram_bytes": report["traffic"]["total_bytes"],
        "spikes": [layer["spikes"] for layer in report["layers"]],
        "class_counts": report["class_counts"],
        "fault": None,
    }


def _fingerprint(run) -> tuple:
    """What engine and oracle must agree on: spike trains and class counts,
    or the identical fixed-point fault."""
    if isinstance(run, FixedPointOverflowError):
        return ("FixedPointOverflowError", str(run))
    h = hashlib.sha256()
    for train in run.layer_trains:
        h.update(repr(train.shape).encode())
        h.update(train.data.tobytes())
    h.update(run.class_counts.astype("<i8").tobytes())
    return ("ok", h.hexdigest())


class RunWorkload:
    """One preset network and bundle; each item is one distinct image."""

    def __init__(self, name, seed, *, preset, verify_in_item, max_items,
                 digest_items, tiny=False, workdir="."):
        self.name = name
        self.seed = seed
        self.preset = preset
        self.verify_in_item = verify_in_item
        self.digest_items = digest_items
        self.tiny = tiny
        self.workdir = workdir
        self.time_steps = TINY_TIME_STEPS if tiny else TIME_STEPS
        self.cfg = HardwareConfig()
        self.max_items = max_items  # one distinct image per item
        self.bundle_bytes = 0
        self._engine_prints: dict[int, tuple] = {}

    def setup(self, tracer):
        t = self.time_steps
        if self.tiny and self.preset == "cifar10":
            text, shape = TINY_CIFAR
            net = netconfig.validate(netconfig.parse_network(text, t), shape)
        else:
            net, shape = netconfig.preset_network(self.preset, t)
        bundle = netconfig.generate_random_bundle(net, self.seed, self.cfg.fmt)
        path = os.path.join(self.workdir, f"bundle-{os.getpid()}.vsa")
        with tracer.span("netconfig.bundle_roundtrip"):
            netconfig.save_bundle(bundle, path)
            try:
                loaded = netconfig.load_bundle(path)
            finally:
                self.bundle_bytes = os.path.getsize(path)
                os.remove(path)
        loaded_net = netconfig.validate(loaded.net, shape)
        if loaded_net.layers != net.layers or loaded != bundle:
            raise RuntimeError("bundle changed in its VSA1 round trip")
        self.net = loaded_net
        self.bundle = loaded
        self.net_text = netconfig.network_to_string(loaded_net)
        self.images = [
            netconfig.random_input(shape, image_seed(self.seed, i))
            for i in range(self.max_items)
        ]

    def describe(self) -> dict:
        return {"workload": self.name, "seed": self.seed, "net": self.net_text,
                "timesteps": self.time_steps}

    def _engine(self, image):
        b = self.bundle
        try:
            return dataflow.run_network(
                self.net, b.weights, b.params, image, self.time_steps, self.cfg
            )
        except FixedPointOverflowError as exc:
            return exc

    def _oracle(self, image):
        b = self.bundle
        try:
            return core.run_network_oracle(
                self.net, b.weights, b.params, image, self.time_steps, self.cfg.fmt
            )
        except FixedPointOverflowError as exc:
            return exc

    def run_item(self, i: int) -> ItemResult:
        image = self.images[i]
        engine = self._engine(image)
        failure = None
        oracle_match = None
        if self.verify_in_item:
            oracle = self._oracle(image)
            if _fingerprint(engine) != _fingerprint(oracle):
                failure = "engine and oracle disagree"
            oracle_match = failure is None
        else:
            self._engine_prints[i] = _fingerprint(engine)
        if isinstance(engine, FixedPointOverflowError):
            return ItemResult({"fault": "FixedPointOverflowError"}, {}, failure)

        net, cfg, t = self.net, self.cfg, self.time_steps
        plan = memmodel.plan_fusion(net, cfg)
        traffic = memmodel.simulate_traffic(net, plan, t, cfg)
        trace = memmodel.pingpong_schedule(net, t, cfg, plan)
        text = self._report(engine, traffic, oracle_match).render("json")
        record = report_record(json.loads(text))
        stats = {
            "trace_events": len(trace.events),
            "report_bytes": len(text),
            "total_cycles": record["cycles"],
            "warmup_cycles": record["warmup_cycles"],
            "active_pe_cycles": record["active_pe_cycles"],
        }
        return ItemResult(record, stats, failure)

    def _report(self, engine, traffic, oracle_match):
        """The report ``vecspike run --report json --deterministic`` writes."""
        by_layer = {r.layer_index: r for r in traffic.records}
        rows = []
        for run in engine.layers:
            rec = by_layer.get(run.index)
            rows.append(report.LayerReportRow(
                index=run.index,
                kind=run.kind,
                out_shape=self.net.layers[run.index].out_shape,
                cycles=run.report.total_cycles,
                warmup_cycles=run.report.warmup_cycles,
                utilization=run.report.utilization,
                spike_count=run.spike_count,
                weight_bytes_read=rec.weight_bytes_read if rec else 0,
                input_spike_bytes_read=rec.input_spike_bytes_read if rec else 0,
                output_spike_bytes_written=rec.output_spike_bytes_written if rec else 0,
                boundary_rows_peak=run.boundary.peak_rows if run.boundary else 0,
                boundary_deposits=run.boundary.deposits if run.boundary else 0,
            ))
        return report.RunReport(
            network=self.net_text,
            input_shape=tuple(self.images[0].shape),
            time_steps=self.time_steps,
            layers=rows,
            totals=engine.total_report,
            traffic=traffic,
            peak_gops=peak_gops(self.cfg),
            class_counts=[int(v) for v in engine.class_counts],
            oracle_match=oracle_match,
            deterministic=True,
        )

    def check_after(self) -> dict[int, str]:
        """Oracle checks deferred out of the timed region, by item index."""
        failures = {}
        for i, engine_print in sorted(self._engine_prints.items()):
            if engine_print != _fingerprint(self._oracle(self.images[i])):
                failures[i] = "engine and oracle disagree"
        self._engine_prints.clear()
        return failures


def fusion_plans(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every plan of singletons and adjacent pairs over n compute layers."""
    if n == 0:
        return [()]
    plans = [((0,),) + tuple(tuple(i + 1 for i in g) for g in rest)
             for rest in fusion_plans(n - 1)]
    if n >= 2:
        plans += [((0, 1),) + tuple(tuple(i + 2 for i in g) for g in rest)
                  for rest in fusion_plans(n - 2)]
    return plans


def random_network_text(rng: random.Random) -> tuple[str, tuple[int, int, int]]:
    """A valid network of eight compute layers: encoding, 5 convs, 2 fc."""
    channels = (16, 32, 64, 128, 192, 256)
    size = rng.choice((16, 32))
    shape = (rng.choice((1, 3)), size, size)
    tokens = [f"{rng.choice(channels)}Conv(encoding)"]
    for _ in range(5):
        if size % 2 == 0 and size >= 4 and rng.random() < 0.4:
            tokens.append("MP2")
            size //= 2
        tokens.append(f"{rng.choice(channels)}Conv")
    if size % 2 == 0 and size >= 4 and rng.random() < 0.5:
        tokens.append("MP2")
    tokens += [f"{rng.choice((64, 128, 256))}fc", "10fc"]
    return "-".join(tokens), shape


class TrafficWorkload:
    """Items are (network, SRAM scaling, fusion plan, T), seeded shuffle."""

    name = "traffic_sweep"
    max_items = None

    def __init__(self, seed, *, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.scales = (1.0,) if tiny else (0.5, 1.0, 2.0)
        self.time_values = (1, 2) if tiny else (1, 4, 8)
        self.random_networks = 1 if tiny else 16
        self.bundle_bytes = 0

    def setup(self, tracer):
        rng = random.Random(self.seed)
        sources = [netconfig.PRESETS[name] for name in
                   (("mnist",) if self.tiny else ("mnist", "cifar10"))]
        sources += [random_network_text(rng) for _ in range(self.random_networks)]
        self.networks = []
        for text, shape in sources:
            net = netconfig.validate(netconfig.parse_network(text), shape)
            plans = fusion_plans(len(memmodel.compute_layers(net)))
            self.networks.append((text, shape, plans))
        base = HardwareConfig()
        self.configs = [
            base.replace(**{f: int(getattr(base, f) * s) for f in SRAM_FIELDS})
            for s in self.scales
        ]
        self.items = [
            (n, s, p, t)
            for n, (_, _, plans) in enumerate(self.networks)
            for s in range(len(self.scales))
            for p in range(len(plans))
            for t in self.time_values
        ]
        rng.shuffle(self.items)
        self.digest_items = len(self.items)

    def describe(self) -> dict:
        return {"workload": self.name, "seed": self.seed,
                "networks": [[text, list(shape)] for text, shape, _ in self.networks],
                "scales": list(self.scales), "timesteps": list(self.time_values)}

    def run_item(self, i: int) -> ItemResult:
        n, s, p, t = self.items[i % len(self.items)]
        text, shape, plans = self.networks[n]
        cfg = self.configs[s]
        net = netconfig.validate(netconfig.parse_network(text, t), shape)
        plan = memmodel.FusionPlan(list(plans[p]))
        auto = memmodel.plan_fusion(net, cfg)
        unfused = memmodel.simulate_traffic(
            net, memmodel.FusionPlan.unfused(plan.layer_count), t, cfg
        )
        fused = memmodel.simulate_traffic(net, plan, t, cfg)
        saving = memmodel.fusion_savings(net, plan, t)
        failure = None
        if unfused.total_bytes - fused.total_bytes != saving:
            failure = (f"unfused - fused = {unfused.total_bytes - fused.total_bytes}"
                       f" bytes, fusion_savings = {saving}")
        try:
            events = len(memmodel.pingpong_schedule(net, t, cfg, plan).events)
            fault = None
        except CapacityFault:
            events = 0
            fault = "CapacityFault"
        record = {
            "net": n, "scale": self.scales[s], "timesteps": t,
            "plan": [list(g) for g in plans[p]], "auto": auto.groups == plan.groups,
            "unfused_bytes": unfused.total_bytes, "fused_bytes": fused.total_bytes,
            "saving": saving, "trace_events": events, "fault": fault,
        }
        stats = {"trace_events": events, "capacity_faults": int(fault is not None)}
        return ItemResult(record, stats, failure)

    def check_after(self) -> dict[int, str]:
        return {}


def make(name: str, seed: int, *, tiny: bool = False, workdir: str = "."):
    if name == "cifar10_verify":
        return RunWorkload(name, seed, preset="cifar10", verify_in_item=True,
                           max_items=16, digest_items=1, tiny=tiny, workdir=workdir)
    if name == "mnist_batch":
        return RunWorkload(name, seed, preset="mnist", verify_in_item=False,
                           max_items=256, digest_items=8, tiny=tiny, workdir=workdir)
    if name == "traffic_sweep":
        return TrafficWorkload(seed, tiny=tiny)
    raise ValueError(f"unknown workload {name!r}")
