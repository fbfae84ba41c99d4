"""Neural networks over normalized data (Section VI).

Public surface: the four activations (identity, sigmoid, tanh, ReLU),
the paper's one loss (half-MSE), layers/MLP, the training configuration
and result types, the epoch driver and its one engine (the three
training strategies are :func:`repro.core.training.train`) and the
second-layer reuse analysis.  The Section VI cost models live in
:mod:`repro.fx.costs`.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    ReLU,
    Sigmoid,
    Tanh,
    available_activations,
    get_activation,
)
from repro.nn.base import NNConfig, NNFitResult, run_training
from repro.nn.engines import FactorizedNNEngine
from repro.nn.layers import DenseLayer, LayerGrads
from repro.nn.losses import HalfMSE
from repro.nn.network import MLP, ForwardCache, build_model
from repro.nn.second_layer import (
    SecondLayerOutputs,
    compare_second_layer,
    second_layer_standard,
    second_layer_with_reuse,
)

__all__ = [
    "Activation",
    "DenseLayer",
    "FactorizedNNEngine",
    "ForwardCache",
    "HalfMSE",
    "Identity",
    "LayerGrads",
    "MLP",
    "NNConfig",
    "NNFitResult",
    "ReLU",
    "SecondLayerOutputs",
    "Sigmoid",
    "Tanh",
    "available_activations",
    "build_model",
    "compare_second_layer",
    "get_activation",
    "run_training",
    "second_layer_standard",
    "second_layer_with_reuse",
]
