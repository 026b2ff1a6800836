"""Power allocation for D2D interference networks.

Generates interference channel instances, trains a quantum graph neural
network and a classical GCN baseline unsupervised on the weighted sum rate,
and benchmarks both against WMMSE and a brute-force grid oracle.
"""

from .channels import (
    ChannelBatch,
    ChannelRealization,
    Scenario,
    generate_scenario,
    load_dataset,
    realize_channels,
    save_dataset,
    sinr,
    sum_rate,
    weighted_sum_rate,
)
from .gcn import GcnModel, GcnParams
from .graph import (
    FeatureScaler,
    InterferenceGraph,
    build_graph,
    decompose_stars,
    fit_feature_scaler,
)
from .qgnn import QgnnModel, QgnnParams, build_qgcl_circuit
from .qsim import (
    CircuitSpec,
    Gate,
    Observable,
    StateVector,
    expectation,
    param_shift_grad,
    run_circuit,
)
from .trainer import (
    AdamConfig,
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
