"""
The classifier, with no framework underneath
============================================

Both architectures run on plain numpy: forward, backward, and the Adam
steps are all explicit array code. That keeps every gradient auditable
against finite differences and every run reproducible from one seed.
"""

import numpy as np

from vtalarm.evaluate import roc_auc
from vtalarm.nn import TrainConfig, build_model, deserialize_model, serialize_model, train
from vtalarm.nn.layers import Dense
from vtalarm.synth import generate_feature_dataset

# The dense variant for 17 extracted features: four hidden blocks of
# 256/192/128/64 units, each linear->batchnorm->relu->dropout.
model = build_model("fcnn", (17,), seed=0)
print("fcnn parameters:", model.parameter_count())

# The convolutional variant reads decimated waveforms directly and adds
# multi-head self-attention over the filtered sequence.
cnn = build_model("cnn", (1000, 3), seed=0)
print("cnn parameters:", cnn.parameter_count())

# Gradients are exact. Checking one dense layer against central finite
# differences shows the kind of agreement the test suite demands of
# every layer.
rng = np.random.default_rng(1)
layer = Dense(4, 3, rng)
x = rng.normal(size=(5, 4))
dout = rng.normal(size=(5, 3))
layer.forward(x, train=True)
layer.backward(dout)
analytic = layer.grads["W"][0, 0]
eps = 1e-6
for sign in (+1, -1):
    layer.params["W"][0, 0] += sign * eps
    val = float(np.sum(layer.forward(x, train=True) * dout))
    layer.params["W"][0, 0] -= sign * eps
    if sign > 0:
        up = val
    else:
        down = val
numeric = (up - down) / (2 * eps)
print("dW[0,0] analytic:", round(analytic, 8), "numeric:", round(numeric, 8))

# Training on a separable two-Gaussian set drives validation ROC-AUC
# toward 1. The loop shuffles with a seeded stream, so rerunning this
# script prints identical numbers.
x, y = generate_feature_dataset(400, 17, 4.0, class_ratio=0.4, seed=2)
small = build_model("fcnn", (17,), seed=2, hyperparams={"hidden_sizes": [32, 16], "dropout_p": 0.1})
history = train(small, x[:320], y[:320], x[320:], y[320:], TrainConfig(max_epochs=15, seed=2))
for row in history[:3]:
    print(f"epoch {row['epoch']}: loss {row['train_loss']:.4f} val auc {row['val_auc']:.4f}")
print("best val auc:", round(max(r["val_auc"] for r in history), 4), "over", len(history), "epochs")

# Checkpoints serialize the architecture, hyperparameters, and every
# array (including batch-norm running statistics) into one tagged blob.
blob = serialize_model(small)
clone = deserialize_model(blob)
same = np.array_equal(clone.predict(x[320:]), small.predict(x[320:]))
print("checkpoint bytes:", len(blob))
print("clone predictions identical:", same)
print("clone val auc:", round(roc_auc(clone.predict(x[320:]), y[320:]), 4))
