"""Power allocation for D2D interference networks.

Generates interference channel instances, trains a quantum graph neural
network and a classical GCN baseline unsupervised on the weighted sum rate,
and benchmarks both against WMMSE and a brute-force grid oracle.
"""

from .channels import (
    ChannelBatch,
    Scenario,
    generate_scenario,
    load_dataset,
    realize_channels,
    save_dataset,
    sinr,
    sum_rate,
    weighted_sum_rate,
)
from .gcn import GcnModel
from .graph import (
    FeatureScaler,
    InterferenceGraph,
    build_graph,
    decompose_stars,
    fit_feature_scaler,
)
from .qgnn import QgnnModel
from .trainer import (
    Instance,
    NonFiniteLossError,
    NonFinitePowerError,
    SeedConfig,
    TrainConfig,
    TrainReport,
    adam_step,
    train,
)
from .wmmse import WmmseResult, grid_search_oracle, wmmse_allocate, wmmse_batch

__version__ = "0.1.0"
