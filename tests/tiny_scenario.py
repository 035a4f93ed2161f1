"""The small scenario the CLI, channel and measurement tests share."""

from beamfocus.config import ExperimentConfig


def tiny_config(**kw):
    """M = 16, N = 4, K = 64 on a random array, with a small budget, grid and heatmap."""
    base = dict(
        num_antennas=16,
        num_td_units=4,
        num_subcarriers=64,
        geometry_kind="random",
        geometry_seed=3,
        total_measurements=60,
        exploit_start=30,
        critic_refit_period=15,
        train_iters=150,
        ax_points=3,
        ay_points=5,
        b_points=5,
        n_sweep=(0, 4),
        heatmap_x_min_m=1.8,
        heatmap_x_max_m=2.2,
        heatmap_y_min_m=-2.2,
        heatmap_y_max_m=-1.8,
        heatmap_resolution_m=0.2,
    )
    base.update(kw)
    return ExperimentConfig(**base)
