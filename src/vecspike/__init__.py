"""Functional and cycle-approximate simulator for a vectorwise
binary-weight spiking-CNN accelerator.

The package splits into a bit-exact reference model (:mod:`vecspike.core`),
the datapath engine verified against it (:mod:`vecspike.dataflow`), the
hardware config (:mod:`vecspike.arch`), a layer step's passes, cycles and
buffer bytes from its geometry alone (:mod:`vecspike.geometry`), an on-chip
buffer and DRAM traffic model (:mod:`vecspike.memmodel`), the network/bundle
formats (:mod:`vecspike.netconfig`) and a CLI (:mod:`vecspike.cli`).  Tests
alone run the register-level PE model, :mod:`vecspike.pipeline`.
"""

__version__ = "0.1.0"

from .arch import CycleReport, HardwareConfig, peak_gops
from .core import (
    BinaryWeightTensor,
    BNParams,
    FoldedNeuronParams,
    SpikeTrain,
    conv2d_oracle,
    fold_bn,
    if_step,
    maxpool2_oracle,
    run_network_oracle,
    spikes_eq3_oracle,
)
from .dataflow import (
    StagedNeuronParams,
    if_unit_process,
    run_network,
    schedule_conv_layer,
    schedule_encoding_layer,
    stage_weights,
)
from .fixedpoint import DEFAULT_FORMAT, FixedPointFormat
from .memmodel import (
    FusionPlan,
    TrafficLedger,
    pingpong_schedule,
    plan_fusion,
    simulate_traffic,
)
from .netconfig import (
    ModelBundle,
    NetworkDescription,
    generate_random_bundle,
    load_bundle,
    parse_network,
    preset_network,
    save_bundle,
    validate,
)

__all__ = [
    "BinaryWeightTensor",
    "BNParams",
    "CycleReport",
    "DEFAULT_FORMAT",
    "FixedPointFormat",
    "FoldedNeuronParams",
    "FusionPlan",
    "HardwareConfig",
    "ModelBundle",
    "NetworkDescription",
    "SpikeTrain",
    "StagedNeuronParams",
    "TrafficLedger",
    "conv2d_oracle",
    "fold_bn",
    "generate_random_bundle",
    "if_step",
    "if_unit_process",
    "load_bundle",
    "maxpool2_oracle",
    "parse_network",
    "peak_gops",
    "pingpong_schedule",
    "plan_fusion",
    "preset_network",
    "run_network",
    "run_network_oracle",
    "save_bundle",
    "schedule_conv_layer",
    "schedule_encoding_layer",
    "simulate_traffic",
    "spikes_eq3_oracle",
    "stage_weights",
    "validate",
]
