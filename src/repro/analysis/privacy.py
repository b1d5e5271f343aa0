"""Privacy leakage of the split-learning smashed-data channel.

Split learning ships activations, not raw data — but activations leak.
Two standard measurements, both pure-substrate (no torch):

* :func:`distance_correlation` — Székely's distance correlation between
  raw inputs and smashed activations; a model-free leakage proxy in
  [0, 1] (1 = fully dependent).  Widely used in the split-learning
  privacy literature (e.g. NoPeek).
* :func:`reconstruction_attack` — train an inversion decoder (an honest
  adversary at the server with a shadow dataset) from smashed data back
  to input pixels and report test MSE against the predict-the-mean
  baseline.  ``leakage`` = 1 − MSE/baseline-MSE, so 0 means the attack
  learned nothing and 1 means perfect reconstruction.

Deeper cuts compress more and leak less — the privacy side of the
cut-layer trade-off the paper's future work raises; see
``examples/privacy_energy_study.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.nn.split import ClientHalf
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

__all__ = [
    "PrivacyReport",
    "distance_correlation",
    "reconstruction_attack",
    "sweep_cut_privacy",
]


def _centered_distance_matrix(x: np.ndarray) -> np.ndarray:
    """Double-centered pairwise Euclidean distance matrix."""
    flat = x.reshape(len(x), -1)
    sq = (flat**2).sum(axis=1)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * flat @ flat.T, 0.0))
    row_mean = d.mean(axis=1, keepdims=True)
    col_mean = d.mean(axis=0, keepdims=True)
    return d - row_mean - col_mean + d.mean()


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Székely distance correlation between two sample sets.

    Both arrays must have the same leading (sample) dimension; trailing
    dimensions are flattened.  Returns a value in [0, 1].
    """
    x, y = np.asarray(x), np.asarray(y)
    if len(x) != len(y):
        raise ValueError(f"sample counts differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    a = _centered_distance_matrix(x)
    b = _centered_distance_matrix(y)
    dcov2 = (a * b).mean()
    dvar_x = (a * a).mean()
    dvar_y = (b * b).mean()
    denom = np.sqrt(dvar_x * dvar_y)
    if denom <= 0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


@dataclass(frozen=True)
class PrivacyReport:
    """Leakage measurements for one client half / cut layer."""

    cut_layer: int
    attack_mse: float
    baseline_mse: float
    distance_corr: float

    @property
    def leakage(self) -> float:
        """1 − MSE/baseline, clipped to [0, 1]; higher = more leakage."""
        if self.baseline_mse <= 0:
            return 0.0
        return float(np.clip(1.0 - self.attack_mse / self.baseline_mse, 0.0, 1.0))


def _smash(client: ClientHalf, images: np.ndarray) -> np.ndarray:
    was_training = client.training
    client.eval()
    with no_grad():
        out = client.forward(Tensor(images)).data.copy()
    if was_training:
        client.train()
    return out


def reconstruction_attack(
    client: ClientHalf,
    shadow_images: np.ndarray,
    test_images: np.ndarray,
    cut_layer: int = 0,
    hidden: int = 256,
    steps: int = 600,
    lr: float = 1e-3,
    seed: int = 0,
) -> PrivacyReport:
    """Train an inversion decoder on a shadow set; evaluate on held-out data.

    The adversary (the honest-but-curious server) sees smashed activations
    and owns a shadow dataset drawn from the same distribution — the
    standard threat model for split-learning inversion.
    """
    if len(shadow_images) < 4 or len(test_images) < 2:
        raise ValueError("need at least 4 shadow and 2 test images")
    rng = new_rng(seed)

    raw_smashed_test = _smash(client, test_images)
    smashed_train = _smash(client, shadow_images)
    # Centre and globally scale from shadow statistics (per-feature
    # whitening misbehaves on sparse post-ReLU activations).
    mu = smashed_train.mean()
    sigma = smashed_train.std() + 1e-6
    smashed_train = (smashed_train - mu) / sigma
    smashed_test = (raw_smashed_test - mu) / sigma
    in_dim = int(np.prod(smashed_train.shape[1:]))
    out_dim = int(np.prod(shadow_images.shape[1:]))

    if hidden > 0:
        decoder = nn.Sequential(
            nn.Flatten(),
            nn.Linear(in_dim, hidden, seed=int(rng.integers(2**31))),
            nn.ReLU(),
            nn.Linear(hidden, out_dim, seed=int(rng.integers(2**31))),
        )
    else:
        # ``hidden=0``: linear decoder (the classic linear probe) — less
        # expressive but far more sample-efficient.
        decoder = nn.Sequential(
            nn.Flatten(),
            nn.Linear(in_dim, out_dim, seed=int(rng.integers(2**31))),
        )
    optimizer = nn.Adam(decoder.parameters(), lr=lr)
    loss_fn = nn.MSELoss()
    flat_targets = shadow_images.reshape(len(shadow_images), -1)

    batch = min(32, len(shadow_images))
    for _ in range(steps):
        idx = rng.choice(len(shadow_images), size=batch, replace=False)
        optimizer.zero_grad()
        preds = decoder(Tensor(smashed_train[idx]))
        loss = loss_fn(preds, flat_targets[idx])
        loss.backward()
        optimizer.step()

    with no_grad():
        recon = decoder(Tensor(smashed_test)).data
    flat_test = test_images.reshape(len(test_images), -1)
    attack_mse = float(((recon - flat_test) ** 2).mean())

    mean_image = flat_targets.mean(axis=0)
    baseline_mse = float(((mean_image[None, :] - flat_test) ** 2).mean())

    dcor = distance_correlation(test_images, raw_smashed_test)
    return PrivacyReport(
        cut_layer=cut_layer,
        attack_mse=attack_mse,
        baseline_mse=baseline_mse,
        distance_corr=dcor,
    )


def sweep_cut_privacy(
    model: nn.Sequential,
    shadow_images: np.ndarray,
    test_images: np.ndarray,
    cuts: list[int] | None = None,
    **attack_kwargs: object,
) -> list[PrivacyReport]:
    """Run the inversion attack at every candidate cut of ``model``."""
    from repro.nn.split import split_model

    cuts = cuts if cuts is not None else list(range(1, len(model)))
    reports = []
    for cut in cuts:
        sm = split_model(model, cut)
        reports.append(
            reconstruction_attack(
                sm.client, shadow_images, test_images, cut_layer=cut, **attack_kwargs
            )
        )
    return reports
