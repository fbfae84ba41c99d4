"""Section VI-A2 ablation: second-layer reuse — exact only for additive
activations, never cheaper in operations, and measurably slower."""

import sys
import time

import numpy as np

from repro.fx.costs import (
    layer2_ops_standard,
    layer2_ops_with_reuse,
    layer2_reuse_overhead,
)
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex
from repro.nn.layers import DenseLayer
from repro.nn.second_layer import (
    compare_second_layer,
    second_layer_standard,
    second_layer_with_reuse,
)
from repro.nn.activations import get_activation


def make_setup(n=60_000, m=120, d_s=5, d_r=15, n_h=50, n_l=20, seed=3):
    rng = np.random.default_rng(seed)
    design = FactorizedDesign(
        rng.normal(size=(n, d_s)),
        [rng.normal(size=(m, d_r))],
        [GroupIndex(rng.integers(0, m, size=n), m)],
    )
    first = DenseLayer.initialize(d_s + d_r, n_h, rng)
    second = DenseLayer.initialize(n_h, n_l, rng)
    return design, first, second


def test_layer2_reuse_standard_timing(benchmark):
    design, first, second = make_setup()
    activation = get_activation("identity")
    benchmark.pedantic(
        second_layer_standard,
        args=(design, first, second, activation),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_layer2_reuse_factorized_timing(benchmark):
    design, first, second = make_setup()
    benchmark.pedantic(
        second_layer_with_reuse,
        args=(design, first, second, "identity"),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_layer2_ablation_report(benchmark, results_dir):
    def run():
        design, first, second = make_setup()
        lines = ["== §VI-A2 ablation: reuse beyond the first layer =="]
        # Exactness per activation.
        for name in ("identity", "sigmoid", "tanh", "relu"):
            outcome = compare_second_layer(design, first, second, name)
            lines.append(
                f"activation={name:<9} max deviation="
                f"{outcome.max_deviation:.2e}  "
                f"mults standard={outcome.standard_multiplications:,}  "
                f"reuse={outcome.reused_multiplications:,}"
            )
        # Layer-2-only op model: overhead strictly positive.
        n, m = design.n, design.dim_blocks[0].shape[0]
        n_h, n_l = first.n_out, second.n_out
        standard_ops = layer2_ops_standard(n, n_h, n_l)
        reuse_ops = layer2_ops_with_reuse(n, m, n_h, n_l)
        overhead = layer2_reuse_overhead(n, m, n_h, n_l)
        lines.append(
            f"layer-2 ops: standard={standard_ops.total:,} "
            f"reuse={reuse_ops.total:,} overhead=+{overhead:,}"
        )
        assert overhead > 0
        # Wall-clock comparison of the layer-2 portion, amortized.
        activation = get_activation("identity")
        tick = time.perf_counter()
        for _ in range(3):
            second_layer_standard(design, first, second, activation)
        standard_seconds = (time.perf_counter() - tick) / 3
        tick = time.perf_counter()
        for _ in range(3):
            second_layer_with_reuse(design, first, second, "identity")
        reuse_seconds = (time.perf_counter() - tick) / 3
        lines.append(
            f"wall: standard={standard_seconds * 1e3:.1f}ms "
            f"reuse-path={reuse_seconds * 1e3:.1f}ms "
            "(reuse path may win overall only via its layer-1 share; "
            "the layer-2 portion itself always adds work)"
        )
        return "\n".join(lines)

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    sys.__stdout__.write("\n" + text + "\n")
    with open(results_dir / "layer2_ablation.txt", "w") as handle:
        handle.write(text + "\n")
