"""Graph-regularized Bayesian meta-learning for few-shot classification.

Class prototypes are random variables: a graph-convolutional summary of a
global class-relation graph sets the mean of their Gaussian prior, a
temperature softmax on the support set gives the likelihood, and stochastic
gradient Langevin dynamics draws posterior samples that are averaged for
query prediction. Training differentiates through the whole sampled pipeline.
"""

from .data import generate_synthetic
from .evaluation import evaluate_fewshot
from .graph import build_knn_graph
from .numerics import RngStream
from .sampler import SamplerConfig
from .trainer import TrainConfig, train

__version__ = "0.1.0"
