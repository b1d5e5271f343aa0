"""Cut-layer analysis.

Where to cut the model is the central split-learning design knob (paper
§IV lists "the impact of the cut layer selection" as future work).  The
cut trades off:

* **client compute** — deeper cut → more FLOPs on the weak device;
* **smashed payload** — the activation size at the cut, paid (up + down)
  on *every batch*;
* **client-model size** — paid on every client-to-client relay and on
  aggregation uploads.

:func:`analyze_cuts` tabulates all three per candidate cut from a
:class:`~repro.nn.profile.ModelProfile`.  Choosing a cut prices it with
the scheme's own round instead
(:func:`repro.experiments.runner.best_cut`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.profile import ModelProfile

__all__ = ["CutAnalysis", "analyze_cuts"]


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
