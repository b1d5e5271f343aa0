"""``repro.data`` — dataset substrate.

Synthetic GTSRB-like traffic-sign generator (the paper's GTSRB workload,
rebuilt parametrically since the sandbox is offline), array datasets,
mini-batch loaders and federated partitioning (IID / Dirichlet).
"""

from repro.data.dataset import ArrayDataset, DataLoader, Dataset, Subset
from repro.data.gtsrb import (
    NUM_CLASSES,
    GtsrbConfig,
    SyntheticGTSRB,
    class_spec,
)
from repro.data.partition import (
    make_client_datasets,
    partition_dirichlet,
    partition_iid,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "GtsrbConfig",
    "SyntheticGTSRB",
    "NUM_CLASSES",
    "class_spec",
    "partition_iid",
    "partition_dirichlet",
    "make_client_datasets",
]
