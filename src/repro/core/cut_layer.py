"""Cut-layer analysis and selection.

Where to cut the model is the central split-learning design knob (paper
§IV lists "the impact of the cut layer selection" as future work).  The
cut trades off:

* **client compute** — deeper cut → more FLOPs on the weak device;
* **smashed payload** — the activation size at the cut, paid (up + down)
  on *every batch*;
* **client-model size** — paid on every client-to-client relay and on
  aggregation uploads.

:func:`analyze_cuts` tabulates all three per candidate cut from a
:class:`~repro.nn.profile.ModelProfile`; :func:`estimate_round_latency`
prices one client's per-batch split interaction; :func:`best_cut` returns
the latency-minimizing cut for a wireless scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.profile import ModelProfile
from repro.wireless.system import WirelessSystem

__all__ = ["CutAnalysis", "analyze_cuts", "estimate_round_latency", "best_cut"]


@dataclass(frozen=True)
class CutAnalysis:
    """Static cost profile for one candidate cut layer."""

    cut_layer: int
    client_forward_flops: int
    client_backward_flops: int
    server_forward_flops: int
    server_backward_flops: int
    smashed_bytes_per_sample: int
    client_model_bytes: int
    server_model_bytes: int


def analyze_cuts(profile: ModelProfile) -> list[CutAnalysis]:
    """Cost profile for every valid cut (1..L-1)."""
    out = []
    for cut in range(1, profile.num_layers):
        out.append(
            CutAnalysis(
                cut_layer=cut,
                client_forward_flops=profile.client_forward_flops(cut),
                client_backward_flops=profile.client_backward_flops(cut),
                server_forward_flops=profile.server_forward_flops(cut),
                server_backward_flops=profile.server_backward_flops(cut),
                smashed_bytes_per_sample=profile.smashed_bytes(cut, 1),
                client_model_bytes=profile.client_model_bytes(cut),
                server_model_bytes=profile.server_model_bytes(cut),
            )
        )
    return out


def estimate_round_latency(
    profile: ModelProfile,
    cut_layer: int,
    system: WirelessSystem,
    client: int,
    batch_size: int,
    local_steps: int,
    bandwidth_hz: float,
) -> float:
    """Expected split-training time for one client's local round.

    Sums, over ``local_steps`` batches: client forward, smashed uplink,
    server forward+backward, gradient downlink, client backward.  Uses
    mean rates (no fading draw) so cut selection is deterministic.
    """
    fwd_c = profile.client_forward_flops(cut_layer) * batch_size
    bwd_c = profile.client_backward_flops(cut_layer) * batch_size
    fwd_s = profile.server_forward_flops(cut_layer) * batch_size
    bwd_s = profile.server_backward_flops(cut_layer) * batch_size
    smashed_bits = 8 * profile.smashed_bytes(cut_layer, batch_size)

    up_rate = system.channel.mean_uplink_rate_bps(client, bandwidth_hz, num_draws=64)
    down_rate = up_rate * 1.5  # AP transmits at higher power; coarse mean
    uplink = smashed_bits / up_rate
    downlink = smashed_bits / down_rate

    per_batch = (
        system.client_compute_seconds(client, fwd_c)
        + uplink
        + system.server_compute_seconds(fwd_s + bwd_s)
        + downlink
        + system.client_compute_seconds(client, bwd_c)
    )
    return local_steps * per_batch


def best_cut(
    profile: ModelProfile,
    system: WirelessSystem,
    batch_size: int,
    local_steps: int = 1,
    bandwidth_hz: float | None = None,
    client: int = 0,
) -> tuple[int, list[tuple[int, float]]]:
    """Latency-minimizing cut layer.

    Returns ``(best_cut, [(cut, latency), ...])`` with the full sweep so
    callers can plot the ablation curve.
    """
    bw = bandwidth_hz or system.allocator.total_bandwidth_hz
    sweep = []
    for cut in range(1, profile.num_layers):
        latency = estimate_round_latency(
            profile, cut, system, client, batch_size, local_steps, bw
        )
        sweep.append((cut, latency))
    best = min(sweep, key=lambda pair: pair[1])[0]
    return best, sweep
