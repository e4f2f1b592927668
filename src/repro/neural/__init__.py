"""Minimal numpy neural-network substrate.

The paper compares against several deep-learning methods (LSTM, USAD,
TranAD for anomaly detection; DeepAR, N-BEATS, Informer, FEDformer, FiLM
for forecasting) that were trained on a V100 GPU.  This offline
reproduction has no GPU and no deep-learning framework, so those baselines
are represented by small feed-forward proxies built on this substrate.
The substrate itself is a complete, tested mini-library: dense layers,
ReLU/tanh activations, MSE loss, Adam optimizer, mini-batch training with
early stopping.
"""

from repro.neural.network import AdamOptimizer, DenseLayer, MLPRegressor

__all__ = ["AdamOptimizer", "DenseLayer", "MLPRegressor"]
