"""Output checks and the ledger that counts attempted and failed operations.

Every check compares the program's output with something computed apart
from the path under test (the value-domain forward pass, another
execution backend, an offline run of the same bundle) or with a property
the method must have (one spike per neuron, SOPs = input spikes x
fan-out).  None compares against stored outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class Ledger:
    """Operations attempted and failed in one run.

    Failures recorded with ``known_fault=True`` belong to the fault the
    benchmark keeps on purpose (see README.md, "Known fault"); any other
    failure makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known_failed: int = 0
    failures: List[str] = field(default_factory=list)
    known_failures: List[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "",
               known_fault: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            line = f"{what}: {detail}" if detail else what
            if known_fault:
                self.known_failed += 1
                self.known_failures.append(line)
            else:
                self.failures.append(line)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def fanout(spec) -> int:
    """Synapses one input spike drives, derived from the weight shape:
    ``C_out * K * K`` for a conv ``(C_out, C_in, K, K)`` kernel and the
    output width for a linear ``(out, in)`` matrix."""
    weight = np.asarray(spec.weight)
    if weight.ndim == 4:
        return int(weight.shape[0] * weight.shape[2] * weight.shape[3])
    return int(weight.shape[0])


# ----------------------------------------------------------------------
# Checks (each records one operation per image or per layer)
# ----------------------------------------------------------------------

def check_predictions(ledger: Ledger, what: str, got, expected,
                      known_fault: bool = False) -> int:
    """One operation per image: ``got[i] == expected[i]``."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        return int(not ledger.record(
            what, False, f"shape {got.shape} != {expected.shape}"))
    bad = 0
    for i, (g, e) in enumerate(zip(got.tolist(), expected.tolist())):
        if not ledger.record(what, g == e, f"image {i}: {g} != {e}",
                             known_fault):
            bad += 1
    return bad


def check_fire_once(ledger: Ledger, what: str, layers: Sequence) -> None:
    """One operation per firing layer: no more spikes than neurons, and
    no neuron listed twice in an event stream.  ``layers`` holds
    ``(name, spikes, neurons, duplicate_ids)`` rows."""
    for name, spikes, neurons, duplicates in layers:
        ok = spikes <= neurons and duplicates == 0
        ledger.record(f"{what} {name}", ok,
                      f"{spikes} spikes, {neurons} neurons, "
                      f"{duplicates} repeated neuron ids")


def check_sops(ledger: Ledger, what: str, traces, specs) -> None:
    """One operation per weight layer: the program's SOP count equals its
    input spikes times the fan-out of the layer's weight shape."""
    weight_traces = [t for t in traces if t.name != "input-encoder"]
    if len(weight_traces) != len(specs):
        ledger.record(what, False, f"{len(weight_traces)} traces for "
                                   f"{len(specs)} weight layers")
        return
    for trace, spec in zip(weight_traces, specs):
        expected = int(trace.input_spikes) * fanout(spec)
        ledger.record(f"{what} {trace.name}", int(trace.sops) == expected,
                      f"sops {trace.sops} != {trace.input_spikes} x "
                      f"{fanout(spec)}")


def check_counts_equal(ledger: Ledger, what: str, got: Sequence,
                       expected: Sequence) -> None:
    """One operation per layer: equal per-layer counts."""
    if len(got) != len(expected):
        ledger.record(what, False, f"{len(got)} layers != {len(expected)}")
        return
    for i, (g, e) in enumerate(zip(got, expected)):
        ledger.record(f"{what} layer {i}", g == e, f"{g} != {e}")


def check_value(ledger: Ledger, what: str, ok: bool, detail: str = "") -> None:
    ledger.record(what, bool(ok), detail)


# ----------------------------------------------------------------------
# Self-test: each check must register a planted fault
# ----------------------------------------------------------------------

@dataclass
class _Trace:
    name: str
    input_spikes: int
    sops: int


@dataclass
class _Spec:
    weight: np.ndarray


def self_test() -> Optional[str]:
    """Feed planted faults through the checks; ``None`` when each one
    registers exactly one failed operation, else what went wrong."""
    conv = _Spec(np.zeros((8, 3, 3, 3), dtype=np.float32))
    linear = _Spec(np.zeros((10, 32), dtype=np.float32))
    cases = {
        "wrong prediction": lambda l: check_predictions(
            l, "self-test", [1, 2, 3], [1, 2, 4]),
        "spikes above neurons": lambda l: check_fire_once(
            l, "self-test", [("conv0", 10, 10, 0), ("conv1", 11, 10, 0)]),
        "repeated neuron id": lambda l: check_fire_once(
            l, "self-test", [("conv0", 4, 10, 1)]),
        "off-by-one sops": lambda l: check_sops(
            l, "self-test",
            [_Trace("input-encoder", 0, 0), _Trace("conv0", 5, 5 * 72),
             _Trace("linear1(out)", 7, 7 * 10 + 1)], [conv, linear]),
        "unequal counts": lambda l: check_counts_equal(
            l, "self-test", [3, 4], [3, 5]),
    }
    for name, plant in cases.items():
        ledger = Ledger()
        plant(ledger)
        if ledger.failed != 1 or ledger.correct:
            return (f"self-test '{name}' registered {ledger.failed} failed "
                    "operations instead of 1")
    return None
