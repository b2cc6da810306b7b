"""Few-shot-aware gradient boosted decision trees.

Histogram GBDT built around the observation that count-based split gates
(most importantly the per-leaf row floor) silently disable learning on tiny
training sets. Ships a few-shot parameter preset, a k-shot benchmark
harness, and a stacked-ensemble pipeline with disjoint few-shot partitions.
"""

from .blend import LinearBlender, fit_blender, nnls
from .booster import (GradientPairs, Model, compute_gradients, load_model,
                      predict, save_model, train, train_many)
from .dataset import (BinnedDataset, Dataset, FeatureBins, bin_features,
                      encode_csv, load_csv, load_schema, schema_for, write_csv)
from .errors import (FewboostError, ParseError, SchemaError,
                     UndefinedMetricError, ValidationError)
from .fsl import (BenchmarkCell, BenchmarkReport, ShotSample, default_preset,
                  fsl_preset, run_benchmark, run_cell, sample_k_shot)
from .metrics import MetricValue, auc, mae, mse, r2
from .mlp import MLP, init_mlp, train_mlp
from .params import Params
from .stacking import (ActionThresholds, Level0Config, Level0Fit,
                       Level0Result, StackingPipeline, calibrate_thresholds,
                       fit_stacking, level0_predictions, load_pipeline,
                       make_default_zoo, partition_shots, predict_actions,
                       save_pipeline, train_level0, winsorize)
from .synth import make_synthetic_binary, make_synthetic_stock
from .tree import (FeatureHistogram, GrowJob, NodeStats, SplitCandidate, Tree,
                   build_histogram, categorical_split, children_score,
                   extra_random_split, find_best_split, grow_tree, grow_trees,
                   split_gain, variance_gain)

__version__ = "0.1.0"
