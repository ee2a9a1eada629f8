"""Sweeps, paper-style summaries, heatmaps, boxplots, and the Fig. 5 study.

The names below load from their submodule on first use.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "boxplot": ("BoxStats", "box_stats", "format_box_row"),
    "heatmap": ("human_bytes", "render_heatmap"),
    "jobs": ("JobTrafficStudy", "allreduce_traffic_reduction", "run_study"),
    "summarize": ("DuelSummary", "best_algorithm_cells", "bine_improvement_distribution",
                  "family_duel", "format_duel_table", "geometric_mean"),
    "sweep": ("ProfileCache", "SweepRecord", "sweep_system"),
    "verifygrid": ("VerifyRecord", "verify_cell", "verify_grid"),
})

__all__ = [
    "VerifyRecord",
    "verify_cell",
    "verify_grid",
    "BoxStats",
    "box_stats",
    "format_box_row",
    "human_bytes",
    "render_heatmap",
    "JobTrafficStudy",
    "allreduce_traffic_reduction",
    "run_study",
    "DuelSummary",
    "best_algorithm_cells",
    "bine_improvement_distribution",
    "family_duel",
    "format_duel_table",
    "geometric_mean",
    "ProfileCache",
    "SweepRecord",
    "sweep_system",
]
